#include "stats/queue_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tlbsim::stats {
namespace {

net::Packet dataFor(FlowId flow) {
  net::Packet p;
  p.flow = flow;
  p.type = net::PacketType::kData;
  p.size = 1500_B;
  p.payload = 1460_B;
  return p;
}

TEST(QueueSampleBounds, ZeroBucketThenTwentyPerDecade) {
  const auto& b = queueSampleBounds();
  ASSERT_EQ(b.size(), 1u + 9u * 20u + 1u);
  EXPECT_EQ(b.front(), 0.0);
  EXPECT_DOUBLE_EQ(b[1], 1e-3);
  EXPECT_DOUBLE_EQ(b[21], 1e-2);
  EXPECT_DOUBLE_EQ(b.back(), 1e6);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

TEST(QueueDelayMonitor, ShortSamplesExactLongSamplesBucketed) {
  QueueDelayMonitor qmon([](FlowId id) { return id == 1; });
  const double drainBps = 125e6;  // 1 Gbps
  qmon.record(dataFor(1), microseconds(12), drainBps);
  qmon.record(dataFor(1), 0_ns, drainBps);
  qmon.record(dataFor(2), microseconds(12), drainBps);
  qmon.record(dataFor(2), 0_ns, drainBps);
  qmon.record(dataFor(2), microseconds(24), drainBps);
  net::Packet ack = dataFor(2);
  ack.type = net::PacketType::kAck;
  qmon.record(ack, microseconds(50), drainBps);  // not a data packet

  EXPECT_EQ(qmon.shortDelayUs().count(), 2u);
  EXPECT_DOUBLE_EQ(qmon.shortDelayUs().max(), 12.0);
  EXPECT_DOUBLE_EQ(qmon.shortQueueLenPkts().max(), 1.0);  // 12 us at 1 Gbps
  EXPECT_EQ(qmon.longDelayUs().count(), 3u);
  EXPECT_EQ(qmon.longQueueLenPkts().count(), 3u);
  EXPECT_DOUBLE_EQ(qmon.longDelayUs().sum(), 36.0);
  EXPECT_EQ(qmon.longDelayUs().bucketCounts().front(), 1u);  // exact zero
  // Bucketed, so within one 20-per-decade bucket (12 %) of the sample.
  EXPECT_NEAR(qmon.longDelayUs().percentile(100.0), 24.0, 24.0 * 0.13);
}

}  // namespace
}  // namespace tlbsim::stats
