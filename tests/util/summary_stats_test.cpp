#include "util/summary_stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace tlbsim {
namespace {

TEST(SampleSet, EmptyIsSafe) {
  SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(SampleSet, MeanAndSum) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SampleSet, PercentileExactOrderStatistics) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);  // 1..100
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.51);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.5);
}

TEST(SampleSet, PercentileSingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(SampleSet, PercentileInterleavedWithInserts) {
  SampleSet s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(20.0);  // invalidates cache
  EXPECT_NEAR(s.percentile(50), 15.0, 1e-9);
}

TEST(SampleSet, ClearResets) {
  SampleSet s;
  s.add(5.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStats, MatchesBatchMoments) {
  RunningStats r;
  SampleSet s;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.uniform(0, 10);
    r.add(v);
    s.add(v);
  }
  EXPECT_EQ(r.count(), 5000u);
  EXPECT_NEAR(r.mean(), s.mean(), 1e-9);
  EXPECT_NEAR(r.min(), s.min(), 1e-12);
  EXPECT_NEAR(r.max(), s.max(), 1e-12);
  // Uniform(0,10) variance = 100/12.
  EXPECT_NEAR(r.variance(), 100.0 / 12.0, 0.5);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats r;
  EXPECT_DOUBLE_EQ(r.mean(), 0.0);
  EXPECT_DOUBLE_EQ(r.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats r;
  r.add(-3.5);
  EXPECT_DOUBLE_EQ(r.mean(), -3.5);
  EXPECT_DOUBLE_EQ(r.variance(), 0.0);
  EXPECT_DOUBLE_EQ(r.min(), -3.5);
  EXPECT_DOUBLE_EQ(r.max(), -3.5);
}

}  // namespace
}  // namespace tlbsim
