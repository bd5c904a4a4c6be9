// EndpointPool: a finished pair is reused only once its flow has drained,
// in the storage it had, losses included; and reuse changes no result and
// no event.
#include "transport/endpoint_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "pool_rig.hpp"

namespace tlbsim::transport {
namespace {

using testing::crossLeafFlows;
using testing::PoolRig;
using testing::smallFabric;

/// Live store slots holding a packet of `flow`, superseded copies aside.
std::size_t storedPacketsOf(const net::PacketStore& store, FlowId flow) {
  using State = net::PacketStore::State;
  std::size_t n = 0;
  for (std::uint32_t h = 0; h < store.capacity(); ++h) {
    n += store[h].pkt.flow == flow && store[h].state != State::kFree &&
         store[h].state != State::kVoid;
  }
  return n;
}

TEST(EndpointPool, ReusesAPairOnlyAfterItsFlowDrained) {
  PoolRig rig;
  // 10 KB flows, one every 500 us: each completes in about 0.5 ms and
  // drains one FIN round trip later, so two pairs serve all 40 flows.
  rig.post(crossLeafFlows(smallFabric(), 40, 10 * kKB, microseconds(500)));

  std::vector<FlowId> retired;
  rig.pool.setRetireHook([&](TcpSender& snd, TcpReceiver& rcv,
                             std::uint64_t tag) {
    EXPECT_TRUE(snd.completed());
    EXPECT_EQ(rcv.cumulativeAck(),
              static_cast<std::uint64_t>(snd.flow().size.bytes()));
    EXPECT_EQ(snd.flow().id, rig.flows[tag].id);
    EXPECT_TRUE(rcv.finReceived());
    EXPECT_EQ(snd.packetsInNetwork() + rcv.packetsInNetwork(), 0);
    // Nothing of the flow is left in the network.
    EXPECT_EQ(storedPacketsOf(rig.topo.packetStore(), snd.flow().id), 0u)
        << "flow " << snd.flow().id;
    retired.push_back(snd.flow().id);
  });
  std::vector<const TcpSender*> built;
  rig.pool.setLaunchHook([&](TcpSender& snd, TcpReceiver&, std::uint64_t) {
    built.push_back(&snd);
  });

  ASSERT_TRUE(rig.runUntilDone(seconds(1)));
  EXPECT_EQ(rig.pool.pairs(), 2u);
  EXPECT_EQ(rig.pool.reuses() + rig.pool.pairs(), 40u);
  ASSERT_EQ(retired.size(), rig.pool.reuses());
  for (const FlowId id : retired) EXPECT_EQ(rig.pool.find(id), nullptr);
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

TEST(EndpointPool, ReusesPairsThatLostPackets) {
  // 8-packet buffers and every kind of loss the fabric reports: full
  // queues, a down that flushes its queue and lets the wire drain, a
  // drop-mode down that also kills what is on the wire, a gray drop, and
  // packets a spine sends into its downed downlink. Each loss reaches the
  // endpoint that sent the packet, so a pair that lost packets still
  // drains and is reused.
  auto cfg = smallFabric();
  cfg.bufferPackets = 8;
  PoolRig rig(cfg);
  fault::FaultPlan drainPlan;
  drainPlan.drainOnDown = true;
  ASSERT_TRUE(fault::parseLinkFaults("leaf0-spine0,down@3ms,up@4ms",
                                     &drainPlan));
  fault::FaultPlan dropPlan;
  ASSERT_TRUE(fault::parseLinkFaults(
      "leaf1-spine1,down@6ms,up@7ms;leaf0-spine1,drop=0.05@1ms,drop=0@9ms",
      &dropPlan));
  fault::FaultInjector drainFaults(drainPlan, rig.topo, rig.simr, 1);
  fault::FaultInjector dropFaults(dropPlan, rig.topo, rig.simr, 2);
  drainFaults.install();
  dropFaults.install();

  std::set<FlowId> lost;
  rig.topo.forEachLink([&lost](const net::FabricLink& l) {
    l.link->addDropHook([&lost](const net::Packet& p) { lost.insert(p.flow); });
    l.link->addFaultDropHook(
        [&lost](const net::Packet& p) { lost.insert(p.flow); });
  });
  std::set<FlowId> retired;
  rig.pool.setRetireHook([&](TcpSender& snd, TcpReceiver& rcv,
                             std::uint64_t) {
    EXPECT_EQ(snd.packetsInNetwork() + rcv.packetsInNetwork(), 0);
    EXPECT_EQ(storedPacketsOf(rig.topo.packetStore(), snd.flow().id), 0u)
        << "flow " << snd.flow().id;
    retired.insert(snd.flow().id);
  });

  // 160 overlapping 30 KB flows through the faults, then, once they are
  // done, small flows one at a time: enough launches to take every pair.
  constexpr int kLossy = 160;
  constexpr int kTrailing = kLossy;
  auto flows = crossLeafFlows(cfg, kLossy + kTrailing, 30 * kKB,
                              microseconds(100));
  for (int i = kLossy; i < kLossy + kTrailing; ++i) {
    flows[static_cast<std::size_t>(i)].size = 1 * kKB;
    flows[static_cast<std::size_t>(i)].start =
        milliseconds(60) + (i - kLossy) * microseconds(500);
  }
  rig.post(flows);
  ASSERT_TRUE(rig.runUntilDone(seconds(1)));
  EXPECT_LT(rig.pool.pairs(), static_cast<std::size_t>(kLossy));
  EXPECT_EQ(rig.orphanPackets(), 0u);

  // Every kind of loss happened.
  const auto& up0 = rig.topo.leafUplink(0, 0);
  const auto& down0 = rig.topo.spineDownlink(0, 0);
  const auto& gray = rig.topo.leafUplink(0, 1);
  std::uint64_t overflows = 0;
  std::uint64_t rejected = 0;
  rig.topo.forEachLink([&](const net::FabricLink& l) {
    overflows += l.link->drops();
    rejected += l.link->faultRejectedPackets();
  });
  EXPECT_GT(overflows, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(up0.faultFlushedPackets() + down0.faultFlushedPackets(), 0u);
  EXPECT_EQ(up0.faultWireDrops() + down0.faultWireDrops(), 0u);
  EXPECT_GT(rig.topo.leafUplink(1, 1).faultWireDrops() +
                rig.topo.spineDownlink(1, 1).faultWireDrops(),
            0u);
  EXPECT_GT(gray.faultWireDrops(), 0u);

  // Every flow that lost a packet was reused.
  ASSERT_FALSE(lost.empty());
  for (const FlowId id : lost) {
    EXPECT_EQ(retired.count(id), 1u) << "flow " << id;
  }
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

}  // namespace
}  // namespace tlbsim::transport
