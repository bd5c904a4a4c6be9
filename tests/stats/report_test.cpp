#include "stats/report.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace tlbsim::stats
