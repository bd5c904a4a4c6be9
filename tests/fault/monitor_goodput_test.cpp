// FaultMonitor's goodput samples: however long the run, the monitor keeps
// only the samples goodputDipRatio() reads, and the ratio is the one the
// whole sample history gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "../transport/pool_rig.hpp"
#include "fault/injector.hpp"
#include "fault/monitor.hpp"
#include "fault/plan.hpp"

namespace tlbsim::fault {
namespace {

constexpr SimTime kInterval = microseconds(500);
/// The disruptive fault lands on the 5000th sample's timestamp.
constexpr std::int64_t kFaultTick = 5000;
constexpr std::int64_t kWindow = FaultMonitor::kDipWindow;

/// Acked bytes at sample k, as a closed form: 5000 B per interval of old
/// history, 1000 B over the kWindow intervals up to the fault, then 250 B
/// for 3 intervals and 4000 B for the rest of the post-fault window, then
/// a stall the ratio must not see.
ByteCount ackedAt(std::int64_t k) {
  const auto span = [k](std::int64_t from, std::int64_t len) {
    return std::clamp<std::int64_t>(k - from, 0, len);
  };
  return ByteCount::fromBytes(5000 * std::min(k, kFaultTick - kWindow) +
                              1000 * span(kFaultTick - kWindow, kWindow) +
                              250 * span(kFaultTick, 3) +
                              4000 * span(kFaultTick + 3, kWindow - 3));
}

TEST(FaultMonitorGoodput, HoldsOnlyTheSamplesTheDipRatioReads) {
  sim::Simulator simr;
  net::LeafSpineTopology topo(simr, transport::testing::smallFabric(),
                              transport::testing::ecmpLeaves());
  FaultMonitor monitor(topo, simr, [](FlowId) { return true; },
                       FaultMonitor::Config{});
  monitor.setGoodputProbe([&simr] { return ackedAt(simr.now() / kInterval); });
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults("leaf0-spine0,down@2500ms", &plan));
  ASSERT_EQ(plan.events.front().at, kFaultTick * kInterval);
  FaultInjector injector(plan, topo, simr, 1);
  injector.setMonitor(&monitor);
  injector.install();

  // Before the fault: a sliding window of kWindow + 1 samples.
  simr.run(4000 * kInterval);
  EXPECT_EQ(monitor.goodputSamples(), static_cast<std::size_t>(kWindow + 1));

  // 10,001 sample intervals in all, the fault in the middle.
  simr.run(10'001 * kInterval);
  EXPECT_EQ(monitor.firstDisruptiveAt(), kFaultTick * kInterval);
  EXPECT_EQ(monitor.goodputSamples(),
            static_cast<std::size_t>(2 * kWindow + 1));
  // Pre-fault mean 1000 B per interval, post-fault minimum 250 B; neither
  // the old history nor the later stall moves it.
  EXPECT_DOUBLE_EQ(monitor.goodputDipRatio(), 0.25);
}

}  // namespace
}  // namespace tlbsim::fault
