// EndpointPool: a finished pair is reused only once its flow has drained,
// in the storage it had; reuse changes no result and no event; and the
// derived drain time covers the topology's and the fault plan's worst
// case.
#include "transport/endpoint_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "pool_rig.hpp"

namespace tlbsim::transport {
namespace {

using testing::crossLeafFlows;
using testing::PoolRig;
using testing::smallFabric;

TEST(EndpointPool, ReusesAPairOnlyAfterItsFlowDrained) {
  PoolRig rig;
  // 10 KB flows, one every 500 us: each completes in ~0.2 ms, then waits
  // out a ~1.7 ms drain, so a handful of pairs serve all 40 flows.
  rig.post(crossLeafFlows(smallFabric(), 40, 10 * kKB, microseconds(500)));

  struct Retired {
    SimTime at;
    SimTime completedAt;
    FlowId id;
  };
  std::vector<Retired> retired;
  rig.pool.setRetireHook([&](TcpSender& snd, TcpReceiver& rcv,
                             std::uint64_t tag) {
    EXPECT_TRUE(snd.completed());
    EXPECT_EQ(rcv.cumulativeAck(),
              static_cast<std::uint64_t>(snd.flow().size.bytes()));
    EXPECT_EQ(snd.flow().id, rig.flows[tag].id);
    retired.push_back({rig.simr.now(), snd.completionTime(), snd.flow().id});
  });
  std::vector<const TcpSender*> built;
  rig.pool.setLaunchHook([&](TcpSender& snd, TcpReceiver&, std::uint64_t) {
    built.push_back(&snd);
  });

  ASSERT_TRUE(rig.runUntilDone(seconds(1)));
  const SimTime drain = rig.pool.drainTime();
  EXPECT_EQ(drain, EndpointPool::safeDrainTime(rig.topo, TcpParams{}));
  EXPECT_LE(rig.pool.pairs(), 6u);
  EXPECT_EQ(rig.pool.reuses() + rig.pool.pairs(), 40u);
  ASSERT_EQ(retired.size(), rig.pool.reuses());
  for (const Retired& r : retired) {
    EXPECT_GT(r.at, r.completedAt + drain) << "flow " << r.id;
    EXPECT_EQ(rig.pool.find(r.id), nullptr);
  }
  EXPECT_EQ(rig.orphanPackets(), 0u);

  // Reuse builds in the old storage: launch i+pairs lands where an
  // earlier pair lived, and find() answers for the flows still held.
  const std::size_t pairs = rig.pool.pairs();
  const auto firstPairs = built.begin() + static_cast<std::ptrdiff_t>(pairs);
  for (auto it = firstPairs; it != built.end(); ++it) {
    EXPECT_NE(std::find(built.begin(), firstPairs, *it), firstPairs);
  }
  std::size_t held = 0;
  rig.pool.forEach([&](const TcpSender& snd, const TcpReceiver&,
                       std::uint64_t) {
    EXPECT_EQ(rig.pool.find(snd.flow().id), &snd);
    ++held;
  });
  EXPECT_EQ(held, pairs);
}

/// Per-flow outcome, as the harness records it.
struct Outcome {
  SimTime fct;
  std::uint64_t acks = 0;
  std::uint64_t dupAcks = 0;
  std::uint64_t dataSent = 0;
  std::uint64_t dataReceived = 0;
  std::uint64_t outOfOrder = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcomeOf(const TcpSender& snd, const TcpReceiver& rcv) {
  Outcome o;
  o.fct = snd.fct();
  o.acks = snd.acksReceived();
  o.dupAcks = snd.dupAcksReceived();
  o.dataSent = snd.dataPacketsSent();
  o.dataReceived = rcv.dataPacketsReceived();
  o.outOfOrder = rcv.outOfOrderPackets();
  return o;
}

TEST(EndpointPool, ResultsMatchEndpointsKeptForTheWholeRun) {
  // Overlapping 60 KB flows on shared uplinks: queues, drops and
  // retransmissions, so late packets are common. The pool's run must
  // match the old lifecycle (every pair built up front, started with
  // start(), kept to the end) flow for flow and event for event.
  const auto cfg = smallFabric();
  const auto flows = crossLeafFlows(cfg, 60, 60 * kKB, microseconds(150));

  PoolRig pooled(cfg);
  std::vector<Outcome> viaPool(flows.size());
  const auto record = [&](TcpSender& snd, TcpReceiver& rcv,
                          std::uint64_t tag) {
    viaPool[tag] = outcomeOf(snd, rcv);
  };
  pooled.pool.setRetireHook(record);
  pooled.post(flows);
  ASSERT_TRUE(pooled.runUntilDone(seconds(1)));
  pooled.pool.forEach(
      [&](const TcpSender& snd, const TcpReceiver& rcv, std::uint64_t tag) {
        viaPool[tag] = outcomeOf(snd, rcv);
      });
  EXPECT_GT(pooled.pool.reuses(), 0u);
  EXPECT_EQ(pooled.orphanPackets(), 0u);

  sim::Simulator simr;
  net::LeafSpineTopology topo(simr, cfg, testing::ecmpLeaves());
  std::vector<std::unique_ptr<TcpReceiver>> receivers;
  std::vector<std::unique_ptr<TcpSender>> senders;
  std::size_t completed = 0;
  for (const FlowSpec& f : flows) {
    receivers.push_back(std::make_unique<TcpReceiver>(
        simr, topo.host(static_cast<int>(f.dst)), f, TcpParams{}));
    senders.push_back(std::make_unique<TcpSender>(
        simr, topo.host(static_cast<int>(f.src)), f, TcpParams{},
        [&completed](TcpSender&) { ++completed; }));
    senders.back()->start();
  }
  auto& sched = simr.scheduler();
  while (completed < flows.size() && !sched.empty()) {
    if (!sched.step(seconds(1))) break;
  }
  ASSERT_EQ(completed, flows.size());
  EXPECT_EQ(sched.executedEvents(), pooled.simr.scheduler().executedEvents());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(viaPool[i], outcomeOf(*senders[i], *receivers[i]))
        << "flow " << i;
  }
}

TEST(EndpointPool, SafeDrainTimeCoversTopologyAndFaultPlan) {
  const auto cfg = smallFabric();
  // One hop: 16 queued packets plus the one serializing, 1500 B each at
  // 1 Gbps (12 us apiece), then 12.5 us of propagation.
  const SimTime hop = 17 * microseconds(12) + cfg.linkDelay;
  {
    PoolRig rig(cfg);
    EXPECT_EQ(EndpointPool::safeDrainTime(rig.topo, TcpParams{}), 2 * 4 * hop);
  }
  // A plan that halves one cable's rate and triples another's delay,
  // later in the run: both fabric tiers take their worst link.
  PoolRig rig(cfg);
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parseLinkFaults(
      "leaf0-spine1,rate=0.5@5ms,rate=1@6ms;leaf1-spine0,delay=3@7ms", &plan));
  fault::FaultInjector injector(plan, rig.topo, rig.simr, 1);
  injector.install();
  const SimTime slow = 17 * microseconds(24) + cfg.linkDelay;
  const SimTime far = 17 * microseconds(12) + 3 * cfg.linkDelay;
  const SimTime fabricHop = std::max(slow, far);
  EXPECT_EQ(EndpointPool::safeDrainTime(rig.topo, TcpParams{}),
            2 * (2 * hop + 2 * fabricHop));
}

}  // namespace
}  // namespace tlbsim::transport
