#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.hpp"

namespace tlbsim::net {
namespace {

/// Records every delivered packet with its arrival time.
class SinkNode : public Node {
 public:
  explicit SinkNode(sim::Simulator& simr) : sim_(simr) {}
  void receive(PacketStore& store, PacketStore::Handle slot,
               int inPort) override {
    arrivals.push_back({store[slot].pkt, sim_.now(), inPort});
    store.free(slot);
  }
  std::string name() const override { return "sink"; }

  struct Arrival {
    Packet pkt;
    SimTime at;
    int port;
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

TEST(Link, SingleTransmissionTiming) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), /*delay=*/microseconds(10), {16, 0});
  link.connect(&sink, 3);
  link.send(makePacket(1, 1500_B));
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1500B @ 1Gbps = 12 us serialize + 10 us propagate.
  EXPECT_EQ(sink.arrivals[0].at, microseconds(22));
  EXPECT_EQ(sink.arrivals[0].port, 3);
}

TEST(Link, BackToBackPipelining) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 1500_B));
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  // Second packet serializes right after the first: arrives 12 us later
  // (propagation overlaps).
  EXPECT_EQ(sink.arrivals[1].at - sink.arrivals[0].at, microseconds(12));
}

TEST(Link, DeliveryPreservesFifoPerLink) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(10), microseconds(1), {64, 0});
  link.connect(&sink, 0);
  for (FlowId f = 1; f <= 20; ++f) link.send(makePacket(f, 500_B));
  simr.run();
  ASSERT_EQ(sink.arrivals.size(), 20u);
  for (FlowId f = 1; f <= 20; ++f) {
    EXPECT_EQ(sink.arrivals[f - 1].pkt.flow, f);
  }
}

TEST(Link, DropWhenQueueFull) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  // 1 B/ms: very slow.
  Link link(simr, store, kbps(8), microseconds(1), {2, 0});
  link.connect(&sink, 0);
  // First packet starts transmitting immediately (leaves the queue); the
  // next two fill the queue; the fourth drops.
  for (int i = 0; i < 4; ++i) link.send(makePacket(1, 1000_B));
  EXPECT_EQ(link.drops(), 1u);
}

TEST(Link, TxCountersAndBusyTime) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(5), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 750_B));
  simr.run();
  EXPECT_EQ(link.txPackets(), 2u);
  EXPECT_EQ(link.txBytes(), 2250_B);
  EXPECT_EQ(link.busyTime(), microseconds(12) + microseconds(6));
}

TEST(Link, DequeueHookReportsQueueDelay) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(1), {16, 0});
  link.connect(&sink, 0);
  std::vector<SimTime> delays;
  link.addDequeueHook(
      [&](const Packet&, SimTime d) { delays.push_back(d); });
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 1500_B));
  simr.run();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], 0_ns);                 // went straight to the wire
  EXPECT_EQ(delays[1], microseconds(12));  // waited one serialization
}

TEST(Link, DropAndMarkHooksFireOncePerDropOrMark) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  // Two-packet buffer with marking from one queued packet onward.
  Link link(simr, store, gbps(1), microseconds(1), {2, 1});
  link.connect(&sink, 0);
  std::vector<FlowId> drops;
  std::vector<FlowId> marks;
  link.addDropHook([&](const Packet& p) { drops.push_back(p.flow); });
  link.addMarkHook([&](const Packet& p) {
    EXPECT_TRUE(p.ce);
    marks.push_back(p.flow);
  });
  for (FlowId f = 1; f <= 5; ++f) {
    Packet p = makePacket(f, 1500_B);
    p.ecnCapable = true;
    link.send(p);
  }
  // p1 goes straight to the wire; p2 enqueues into an empty queue (no
  // mark); p3 sees one queued packet and is marked; p4 and p5 overflow.
  simr.run();
  EXPECT_EQ(marks, std::vector<FlowId>{3});
  EXPECT_EQ(drops, (std::vector<FlowId>{4, 5}));
  EXPECT_EQ(link.drops(), 2u);
  EXPECT_EQ(sink.arrivals.size(), 3u);
}

TEST(Link, SeveralHooksOnOneLinkCoexist) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link a(simr, store, gbps(1), microseconds(1), {64, 0});
  Link b(simr, store, gbps(1), microseconds(1), {64, 0});
  a.connect(&sink, 0);
  b.connect(&sink, 0);
  int first = 0;
  int second = 0;
  int onB = 0;
  a.addDequeueHook([&](const Packet&, SimTime) { ++first; });
  a.addDequeueHook([&](const Packet&, SimTime) { ++second; });
  b.addDequeueHook([&](const Packet&, SimTime) { ++onB; });
  a.send(makePacket(1, 1500_B));
  a.send(makePacket(2, 1500_B));
  b.send(makePacket(3, 1500_B));
  simr.run();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);
  EXPECT_EQ(onB, 1);
}

TEST(Link, QueueStateVisibleToObservers) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(1), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 1000_B));
  link.send(makePacket(3, 500_B));
  // First packet is on the wire; two wait in the queue.
  EXPECT_EQ(link.queuePackets(), 2);
  EXPECT_EQ(link.queueBytes(), 1500_B);
  simr.run();
  EXPECT_EQ(link.queuePackets(), 0);
}

// --- event shape: one event per hop ---------------------------------------

TEST(Link, PacketsThatFindTheLinkIdleCostOneEventEach) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  constexpr int kPackets = 5;
  std::uint64_t events = 0;
  for (int i = 0; i < kPackets; ++i) {
    link.send(makePacket(static_cast<FlowId>(i), 1500_B));
    events += simr.run();  // drains: the next packet finds the link idle
  }
  EXPECT_EQ(events, static_cast<std::uint64_t>(kPackets))
      << "the delivery alone; no serialization-done event";
  EXPECT_EQ(sink.arrivals.size(), static_cast<std::size_t>(kPackets));
}

TEST(Link, BackToBackPacketsCostTheirOutcomesPlusOneWakeEachBehindTheFirst) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  constexpr int kPackets = 6;
  for (int i = 0; i < kPackets; ++i) {
    link.send(makePacket(static_cast<FlowId>(i), 1500_B));
  }
  EXPECT_EQ(simr.run(), static_cast<std::uint64_t>(2 * kPackets - 1));
  EXPECT_EQ(sink.arrivals.size(), static_cast<std::size_t>(kPackets));
}

TEST(Link, EnqueueBehindABusyLinkPostsOneWakeOnTheHeap) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  link.connect(&sink, 0);
  const sim::Scheduler& sched = simr.scheduler();
  link.send(makePacket(1, 1500_B));
  EXPECT_EQ(sched.pendingEvents(), 1u) << "its delivery";
  simr.run(microseconds(5));  // mid-serialization, queue empty
  ASSERT_TRUE(link.transmitting());
  const std::uint64_t lanePosts = sched.lanePosts();
  link.send(makePacket(2, 1500_B));
  EXPECT_EQ(sched.pendingEvents(), 2u) << "one wake for packet 2";
  EXPECT_EQ(sched.lanePosts(), lanePosts) << "the wake goes to the heap";
  link.send(makePacket(3, 1500_B));
  EXPECT_EQ(sched.pendingEvents(), 2u) << "the pending wake serves packet 3";
  // Three deliveries, the wake at 12 us, and one more at 24 us posted
  // when packet 2 started with packet 3 behind it.
  EXPECT_EQ(simr.run(), 5u);
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].at, microseconds(22));
  EXPECT_EQ(sink.arrivals[1].at, microseconds(34));
  EXPECT_EQ(sink.arrivals[2].at, microseconds(46));
}

TEST(Link, TxCountersCountEndedSerializations) {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(5), {16, 0});
  link.connect(&sink, 0);
  link.send(makePacket(1, 1500_B));
  link.send(makePacket(2, 750_B));
  EXPECT_EQ(link.txPackets(), 0u);
  simr.run(microseconds(12));  // packet 1 ends; packet 2 starts
  EXPECT_TRUE(link.transmitting());
  EXPECT_EQ(link.txPackets(), 1u);
  EXPECT_EQ(link.txBytes(), 1500_B);
  simr.run(microseconds(18));
  EXPECT_FALSE(link.transmitting());
  EXPECT_EQ(link.txPackets(), 2u);
  EXPECT_EQ(link.txBytes(), 2250_B);
}

TEST(Link, EveryFateReturnsItsSlot) {
  // One link and one sinkless link share a store. Timed actions drive the
  // link through every fate a packet can meet; after every event, the
  // store's live slots must equal the slots the two links say they hold.
  // 1500 B at 1 Gbps serializes in 12 us; propagation is 10 us.
  sim::Simulator simr;
  PacketStore store;
  SinkNode sink(simr);
  Link link(simr, store, gbps(1), microseconds(10), {8, 0});
  link.connect(&sink, 0);
  Link sinkless(simr, store, gbps(1), microseconds(10), {8, 0});
  const auto at = [&simr](int us, auto fn) {
    simr.postAt(microseconds(us), std::move(fn));
  };
  const auto burst = [](Link& l, int n) {
    for (int i = 0; i < n; ++i) l.send(makePacket(1, 1500_B));
  };

  at(0, [&] { burst(link, 1); });  // a delivery
  // Ten at once: one serializes, eight queue, one is a queue-full drop.
  at(100, [&] { burst(link, 10); });
  at(300, [&] {  // a send while the link is down
    link.faultDown(/*drainInFlight=*/false);
    burst(link, 1);
  });
  at(301, [&] { link.faultUp(); });
  // Drop-mode down at 430: the second packet is on the wire, the third
  // serializing (a void copy and a loss at 436), the fourth flushed.
  at(400, [&] { burst(link, 4); });
  at(430, [&] { link.faultDown(/*drainInFlight=*/false); });
  at(500, [&] { link.faultUp(); });
  // Drain-mode down at 615 flushes the third packet; the up at 618
  // re-decides the second, still serializing, which is delivered.
  at(600, [&] { burst(link, 3); });
  at(615, [&] { link.faultDown(/*drainInFlight=*/true); });
  at(618, [&] { link.faultUp(); });
  // A delay fault mid-serialization re-decides the packet on the link.
  at(700, [&] { burst(link, 2); });
  at(705, [&] { link.faultSetDelayFactor(2.0); });
  at(800, [&] { link.faultSetDelayFactor(1.0); });
  // Gray drops; then a reseed to probability 0 mid-serialization saves
  // the packet on the link.
  at(900, [&] {
    link.faultSetDropProb(1.0, /*seed=*/7);
    burst(link, 2);
  });
  at(1000, [&] { burst(link, 2); });
  at(1005, [&] { link.faultSetDropProb(0.0, /*seed=*/9); });
  at(1100, [&] { burst(sinkless, 3); });

  EXPECT_EQ(store.capacity(), 0u) << "the first chunk waits for a packet";
  std::uint64_t mostHeld = 0;
  while (simr.scheduler().step()) {
    const std::uint64_t held =
        link.storeSlotsHeld() + sinkless.storeSlotsHeld();
    ASSERT_EQ(store.live(), held) << "at " << toMicroseconds(simr.now());
    mostHeld = std::max(mostHeld, held);
  }

  EXPECT_EQ(link.drops(), 1u);
  EXPECT_EQ(link.faultRejectedPackets(), 1u);
  EXPECT_EQ(link.faultFlushedPackets(), 2u);
  EXPECT_EQ(link.faultWireDrops(), 4u);  // two at the down, two gray
  EXPECT_EQ(link.deliveredPackets(), 17u);
  EXPECT_EQ(sink.arrivals.size(), 17u);
  EXPECT_EQ(sinkless.deliveredPackets(), 3u);
  EXPECT_EQ(store.live(), 0u);
  EXPECT_EQ(link.storeSlotsHeld() + sinkless.storeSlotsHeld(), 0u);
  EXPECT_EQ(mostHeld, 9u);  // one serializing, eight queued
  const std::size_t chunks =
      (mostHeld + PacketStore::kChunkSlots - 1) / PacketStore::kChunkSlots;
  EXPECT_LE(store.capacity(), chunks * PacketStore::kChunkSlots);
}

}  // namespace
}  // namespace tlbsim::net
