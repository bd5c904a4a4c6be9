#include "stats/report.hpp"

#include <gtest/gtest.h>

#include "stats/time_series.hpp"

namespace tlbsim::stats {
namespace {

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(-0.5, 3), "-0.500");
}

TEST(Table, PrintDoesNotCrash) {
  Table t({"col1", "col2", "col3"});
  t.addRow({"a", "b", "c"});
  t.addRow("label", {1.23456, 7.8}, 2);
  t.print("test table");  // visual smoke only
}

TEST(Table, ShortRowsTolerated) {
  Table t({"a", "b", "c"});
  t.addRow({"only-one"});
  t.print("short rows");
}

TEST(TimeSeries, MeanAndMax) {
  TimeSeries ts;
  ts.add(0_ns, 1.0);
  ts.add(1_ns, 3.0);
  ts.add(2_ns, 2.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
  EXPECT_DOUBLE_EQ(ts.max(), 3.0);
  EXPECT_EQ(ts.size(), 3u);
}

TEST(TimeSeries, EmptyIsSafe) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.mean(), 0.0);
  EXPECT_DOUBLE_EQ(ts.max(), 0.0);
  EXPECT_TRUE(ts.empty());
}

}  // namespace
}  // namespace tlbsim::stats
