#include "workload/flow_size_dist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/rng.hpp"

namespace tlbsim::workload {
namespace {

TEST(FlowSizeDist, FixedAlwaysReturnsSameSize) {
  auto d = FlowSizeDistribution::fixed(5000_B);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 5000_B);
  EXPECT_DOUBLE_EQ(d.meanBytes(), 5000.0);
}

TEST(FlowSizeDist, UniformStaysInBounds) {
  auto d = FlowSizeDistribution::uniform(40 * kKB, 100 * kKB);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const ByteCount s = d.sample(rng);
    EXPECT_GE(s, 40 * kKB);
    EXPECT_LE(s, 100 * kKB);
  }
  EXPECT_NEAR(d.meanBytes(), 70e3, 1.0);
}

TEST(FlowSizeDist, CdfIsMonotoneAndNormalized) {
  auto d = FlowSizeDistribution::webSearch();
  double last = -1.0;
  for (ByteCount x; x < 40 * kMB; x += kMB / 2) {
    const double c = d.cdf(x);
    EXPECT_GE(c, last);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    last = c;
  }
  EXPECT_DOUBLE_EQ(d.cdf(30 * kMB), 1.0);
}

TEST(FlowSizeDist, WebSearchHasPaperProperties) {
  auto d = FlowSizeDistribution::webSearch();
  // "about 30% flows are larger than 1MB" (paper Section 6.2).
  const double above1MB = 1.0 - d.cdf(1 * kMB);
  EXPECT_NEAR(above1MB, 0.30, 0.05);
  // Mean around 1.6 MB (DCTCP workload).
  EXPECT_NEAR(d.meanBytes(), 1.66e6, 0.3e6);
}

TEST(FlowSizeDist, DataMiningHasPaperProperties) {
  auto d = FlowSizeDistribution::dataMining();
  // "less than 5% flows larger than 35MB" (paper Section 6.2).
  EXPECT_LT(1.0 - d.cdf(35 * kMB), 0.05);
  // Most flows are tiny.
  EXPECT_GT(d.cdf(15 * kKB), 0.75);
}

TEST(FlowSizeDist, HeavyTailByteShare) {
  // The defining property: ~90% of bytes come from ~10% of flows.
  auto d = FlowSizeDistribution::dataMining();
  Rng rng(3);
  std::vector<ByteCount> sizes;
  for (int i = 0; i < 20000; ++i) sizes.push_back(d.sample(rng));
  std::sort(sizes.begin(), sizes.end());
  double total = 0.0;
  for (ByteCount s : sizes) total += static_cast<double>(s.bytes());
  double top10 = 0.0;
  for (std::size_t i = sizes.size() * 9 / 10; i < sizes.size(); ++i) {
    top10 += static_cast<double>(sizes[i].bytes());
  }
  EXPECT_GT(top10 / total, 0.85);
}

TEST(FlowSizeDist, CapTruncatesTail) {
  auto d = FlowSizeDistribution::dataMining(/*capBytes=*/35 * kMB);
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(d.sample(rng), 35 * kMB);
  }
  EXPECT_LT(d.meanBytes(),
            FlowSizeDistribution::dataMining().meanBytes());
}

TEST(FlowSizeDist, CapPreservesSmallFlowShape) {
  auto full = FlowSizeDistribution::dataMining();
  auto capped = FlowSizeDistribution::dataMining(35 * kMB);
  for (ByteCount x : {kKB, 10 * kKB, 100 * kKB, kMB}) {
    EXPECT_NEAR(full.cdf(x), capped.cdf(x), 1e-9);
  }
}

// Empirical sample mean must converge to the analytic mean. The name is a
// std::string, not a const char*: ctest names print the parameter, and a
// pointer would put an address there that changes from run to run.
class DistMeanSweep
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(DistMeanSweep, SampleMeanMatchesAnalytic) {
  const int which = GetParam().second;
  FlowSizeDistribution d = [&] {
    switch (which) {
      case 0: return FlowSizeDistribution::webSearch();
      case 1: return FlowSizeDistribution::dataMining(100 * kMB);
      case 2: return FlowSizeDistribution::uniform(10 * kKB, 90 * kKB);
      default: return FlowSizeDistribution::fixed(1234_B);
    }
  }();
  Rng rng(static_cast<std::uint64_t>(which) + 10);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng).bytes());
  EXPECT_NEAR(sum / n, d.meanBytes(), d.meanBytes() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Dists, DistMeanSweep,
    ::testing::Values(std::pair{"websearch", 0}, std::pair{"datamining", 1},
                      std::pair{"uniform", 2}, std::pair{"fixed", 3}));

}  // namespace
}  // namespace tlbsim::workload
