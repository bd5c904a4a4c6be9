// Link- and switch-level fault semantics: down/up, queue flushing,
// in-flight (wire) kills vs draining, gray failures, degradation factors,
// and selector-facing port masking.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

class SinkNode : public Node {
 public:
  explicit SinkNode(sim::Simulator& simr) : sim_(simr) {}
  void receive(PacketStore& store, PacketStore::Handle slot, int) override {
    arrivals.push_back({store[slot].pkt, sim_.now()});
    store.free(slot);
  }
  std::string name() const override { return "sink"; }

  struct Arrival {
    Packet pkt;
    SimTime at;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator& sim_;
};

Packet makePacket(FlowId flow, ByteCount size) {
  Packet p;
  p.flow = flow;
  p.size = size;
  p.payload = size;
  return p;
}

TEST(LinkFault, SendWhileDownIsRejectedNotEnqueued) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.faultDown(/*drainInFlight=*/false);
  link.send(makePacket(1, 1500_B));
  simr.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(link.faultRejectedPackets(), 1u);
  EXPECT_EQ(link.enqueuedPackets(), 0u);
  EXPECT_EQ(link.drops(), 0u) << "a fault loss is not a queue drop";
  EXPECT_EQ(link.faultDrops(), 1u);
}

TEST(LinkFault, DownFlushesQueueWithoutDequeueHooks) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  int dequeues = 0;
  link.addDequeueHook([&](const Packet&, SimTime) { ++dequeues; });
  // First packet serializes immediately; three more wait in the queue.
  for (FlowId f = 1; f <= 4; ++f) link.send(makePacket(f, 1500_B));
  ASSERT_EQ(link.queuePackets(), 3);
  ASSERT_EQ(dequeues, 1);
  link.faultDown(/*drainInFlight=*/false);
  EXPECT_EQ(link.queuePackets(), 0);
  EXPECT_EQ(link.faultFlushedPackets(), 3u);
  EXPECT_EQ(dequeues, 1) << "flushed packets must not look like dequeues";
  // Per-link conservation with the fault term:
  // enqueued == tx + queued + serializing + flushed.
  EXPECT_EQ(link.enqueuedPackets(),
            link.txPackets() + static_cast<std::uint64_t>(link.queuePackets())
                + (link.transmitting() ? 1 : 0) + link.faultFlushedPackets());
}

TEST(LinkFault, DropModeKillsSerializingAndInFlightPackets) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  // 1500 B @ 1 Gbps = 12 us serialization; 10 us propagation.
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));  // tx completes at 12 us, delivery at 22 us
  link.send(makePacket(2, 1500_B));  // tx completes at 24 us, delivery at 34 us
  // Fail at 15 us: packet 1 is on the wire, packet 2 is serializing.
  simr.post(microseconds(15), [&] { link.faultDown(false); });
  simr.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(link.faultWireDrops(), 2u);
  EXPECT_EQ(link.deliveredPackets() + link.faultWireDrops(),
            link.txPackets());
}

TEST(LinkFault, DrainModeDeliversInFlightPackets) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 1500_B));
  simr.post(microseconds(15), [&] { link.faultDown(true); });
  simr.run();
  // Both had left the queue by 15 us (packet 2 was serializing), so both
  // drain through; nothing new may start.
  EXPECT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(link.faultWireDrops(), 0u);
}

TEST(LinkFault, UpRestoresServiceAndRestartsQueue) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.faultDown(false);
  link.send(makePacket(1, 1500_B));  // rejected
  link.faultUp();
  EXPECT_TRUE(link.up());
  link.send(makePacket(2, 1500_B));  // accepted
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].pkt.flow, 2u);
  EXPECT_EQ(link.faultRejectedPackets(), 1u);
}

TEST(LinkFault, GrayFailureDropsAreDeterministicAndAccounted) {
  const auto runOnce = [](std::uint64_t seed) {
    sim::Simulator simr;
    PacketStore store;
    SinkNode sink(simr);
    Link link(simr, store, gbps(10), microseconds(1), {512, 0});
    link.connect(&sink, 0);
    std::size_t faultDropHooks = 0;
    std::size_t dropHooks = 0;
    link.addFaultDropHook([&](const Packet&) { ++faultDropHooks; });
    link.addDropHook([&](const Packet&) { ++dropHooks; });
    link.faultSetDropProb(0.3, seed);
    const int n = 200;
    for (int i = 0; i < n; ++i) link.send(makePacket(1, 1000_B));
    simr.run();
    // Every transmitted packet is either delivered or gray-dropped.
    EXPECT_EQ(link.txPackets(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(link.deliveredPackets() + link.faultWireDrops(),
              link.txPackets());
    EXPECT_GT(link.faultWireDrops(), 0u);
    EXPECT_LT(link.faultWireDrops(), static_cast<std::uint64_t>(n));
    // The queue stays healthy-looking: no queue drops, and the hooks
    // report every loss as a fault drop, not a queue drop.
    EXPECT_EQ(link.drops(), 0u);
    EXPECT_EQ(faultDropHooks, static_cast<std::size_t>(link.faultWireDrops()));
    EXPECT_EQ(dropHooks, 0u);
    return link.faultWireDrops();
  };
  EXPECT_EQ(runOnce(42), runOnce(42)) << "same seed, same drop sequence";
  EXPECT_EQ(runOnce(42) == runOnce(43) && runOnce(43) == runOnce(44), false)
      << "drop sequences should vary across seeds";
}

TEST(LinkFault, RateFactorSlowsSerialization) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.faultSetRateFactor(0.5);  // 1 Gbps -> 500 Mbps
  link.send(makePacket(1, 1500_B));
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 24 us serialization (doubled) + 10 us propagation.
  EXPECT_EQ(sink.arrivals[0].at, microseconds(34));
  link.faultSetRateFactor(1.0);
  EXPECT_EQ(link.effectiveRate().bitsPerSecond(), gbps(1).bitsPerSecond());
}

TEST(LinkFault, DelayFactorInflatesPropagation) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.faultSetDelayFactor(3.0);  // 10 us -> 30 us
  link.send(makePacket(1, 1500_B));
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].at, microseconds(12) + microseconds(30));
}

TEST(LinkFault, DelayRestoreKeepsTheCableFifo) {
  // Packet 0 leaves at 12 us under a 3x delay and lands at 42 us. The
  // restore at 20 us would land packet 1 (serialized by 24 us) at 34 us,
  // ahead of packet 0 still on the wire; it is held to 42 us instead.
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.faultSetDelayFactor(3.0);
  for (FlowId f = 0; f < 4; ++f) link.send(makePacket(f, 1500_B));
  simr.post(microseconds(20), [&] { link.faultSetDelayFactor(1.0); });
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  const SimTime expected[] = {microseconds(42), microseconds(42),
                              microseconds(46), microseconds(58)};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.flow, i) << "arrival " << i;
    EXPECT_EQ(sink.arrivals[i].at, expected[i]) << "arrival " << i;
  }
}

TEST(LinkFault, DropModeDownLiftedWithinOneSerializationDelivers) {
  // The packet meets the state in force when its serialization ends (at
  // 12 us): up again, so it is delivered.
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));
  simr.post(microseconds(3), [&] { link.faultDown(false); });
  simr.post(microseconds(6), [&] { link.faultUp(); });
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].at, microseconds(22));
  EXPECT_EQ(link.faultWireDrops(), 0u);
}

TEST(LinkFault, DropFaultMidSerializationDecidesWithTheNewSeed) {
  // Seeds whose first draw drops (< 0.5) or passes at probability 0.5.
  std::uint64_t dropSeed = 0;
  std::uint64_t passSeed = 0;
  for (std::uint64_t s = 1; dropSeed == 0 || passSeed == 0; ++s) {
    (Rng(s).uniform() < 0.5 ? dropSeed : passSeed) = s;
  }
  for (const auto& [before, mid] : {std::pair{dropSeed, passSeed},
                                    std::pair{passSeed, dropSeed}}) {
    sim::Simulator simr;
    PacketStore store;
    SinkNode sink(simr);
    Link link(simr, store, gbps(1), microseconds(10), {16, 0});
    link.connect(&sink, 0);
    link.faultSetDropProb(0.5, before);
    link.send(makePacket(1, 1500_B));
    simr.post(microseconds(6), [&] { link.faultSetDropProb(0.5, mid); });
    simr.run();
    EXPECT_EQ(sink.arrivals.size(), mid == passSeed ? 1u : 0u)
        << "seed " << before << " then " << mid;
    EXPECT_EQ(link.faultWireDrops(), mid == passSeed ? 0u : 1u);
  }
}

TEST(LinkFault, GrayDropFiresItsHookAtSerializationEnd) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  std::vector<SimTime> hookTimes;
  link.addFaultDropHook([&](const Packet&) { hookTimes.push_back(simr.now()); });
  link.faultSetDropProb(1.0, 7);
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 1500_B));
  simr.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(hookTimes,
            (std::vector<SimTime>{microseconds(12), microseconds(24)}));
}

TEST(LinkFault, PacketKilledWhileSerializingHoldsBackNoLaterPacket) {
  // Packet 1 would land at 42 us under a 3x delay, but a drop fault kills
  // it at serialization end (12 us). The cable's FIFO floor stays where it
  // was, so packet 2, sent at 13 us after the delay is restored, lands at
  // 13 + 12 + 10 = 35 us rather than being held to 42 us.
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.faultSetDelayFactor(3.0);
  link.send(makePacket(1, 1500_B));
  simr.post(microseconds(5), [&] { link.faultSetDropProb(1.0, 3); });
  simr.post(microseconds(13), [&] {
    link.faultSetDropProb(0.0, 3);
    link.faultSetDelayFactor(1.0);
    link.send(makePacket(2, 1500_B));
  });
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].pkt.flow, 2u);
  EXPECT_EQ(sink.arrivals[0].at, microseconds(35));
  EXPECT_EQ(link.faultWireDrops(), 1u);
}

// --- switch-facing behavior ------------------------------------------------

struct SwitchRig {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sinkA, sinkB, sinkC;
  std::unique_ptr<Switch> sw;

  SwitchRig() : sinkA(simr), sinkB(simr), sinkC(simr) {
    sw = std::make_unique<Switch>(simr, store, "rig-switch");
    for (SinkNode* sink : {&sinkA, &sinkB, &sinkC}) {
      auto link = std::make_unique<Link>(simr, store, gbps(1), microseconds(1),
                                         QueueConfig{16, 0});
      link->connect(sink, 0);
      sw->addPort(std::move(link));
    }
    sw->setUplinkGroup({0, 1, 2});
    sw->routeViaUplinks(9);
  }

  Packet packetFor(HostId dst) {
    Packet p;
    p.flow = 7;
    p.dst = dst;
    p.size = 100_B;
    p.payload = 100_B;
    return p;
  }
};

TEST(SwitchFault, UplinkViewMasksDownedPorts) {
  SwitchRig rig;
  EXPECT_EQ(rig.sw->uplinkView().size(), 3u);
  rig.sw->port(1).faultDown(false);
  const UplinkView view = rig.sw->uplinkView();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0].port, 0);
  EXPECT_EQ(view[1].port, 2);
  rig.sw->port(1).faultUp();
  EXPECT_EQ(rig.sw->uplinkView().size(), 3u);
}

TEST(SwitchFault, UplinkViewReflectsDegradation) {
  SwitchRig rig;
  rig.sw->port(0).faultSetRateFactor(0.25);
  rig.sw->port(0).faultSetDelayFactor(2.0);
  const UplinkView view = rig.sw->uplinkView();
  EXPECT_DOUBLE_EQ(view[0].rateBps, gbps(1).bitsPerSecond() * 0.25);
  EXPECT_DOUBLE_EQ(view[0].linkDelaySec, toSeconds(microseconds(2)));
  EXPECT_DOUBLE_EQ(view[1].rateBps, gbps(1).bitsPerSecond());
}

TEST(SwitchFault, AllUplinksDownStillAccountsEveryPacket) {
  SwitchRig rig;
  for (int p = 0; p < 3; ++p) rig.sw->port(p).faultDown(false);
  rig.sw->receive(rig.store, rig.store.alloc(rig.packetFor(9)), 0);
  rig.simr.run();
  // The packet is forwarded into a dead link and dies there as a fault
  // drop — never silently vanishing, never counted unroutable — and the
  // link frees its slot.
  EXPECT_EQ(rig.sw->forwardedPackets(), 1u);
  EXPECT_EQ(rig.sw->unroutablePackets(), 0u);
  std::uint64_t faultDrops = 0;
  for (int p = 0; p < 3; ++p) faultDrops += rig.sw->port(p).faultDrops();
  EXPECT_EQ(faultDrops, 1u);
  EXPECT_EQ(rig.store.live(), 0u);
}

}  // namespace
}  // namespace tlbsim::net
