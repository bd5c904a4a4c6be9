#include "net/host.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace tlbsim::net {
namespace {

class RecordingHandler : public PacketHandler {
 public:
  void onPacket(const Packet& pkt) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

class LoopbackNode : public Node {
 public:
  explicit LoopbackNode(Host& target) : target_(target) {}
  void receive(PacketStore& store, PacketStore::Handle slot, int) override {
    target_.receive(store, slot, 0);
  }
  std::string name() const override { return "loopback"; }

 private:
  Host& target_;
};

Packet packetFor(FlowId flow) {
  Packet p;
  p.flow = flow;
  p.size = 100_B;
  return p;
}

/// Hands `host` a packet of `flow` in a slot of `store`, as its access
/// link delivers one; the host frees the slot.
void deliver(Host& host, PacketStore& store, FlowId flow) {
  host.receive(store, store.alloc(packetFor(flow)), 0);
}

TEST(Host, DemultiplexesByFlow) {
  PacketStore store;
  Host host(0, "h0");
  RecordingHandler a, b;
  host.bind(1, &a);
  host.bind(2, &b);
  deliver(host, store, 1);
  deliver(host, store, 2);
  deliver(host, store, 1);
  EXPECT_EQ(a.received.size(), 2u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(store.live(), 0u);  // each slot freed once read
}

TEST(Host, UnboundFlowsAreDroppedSilently) {
  PacketStore store;
  Host host(0, "h0");
  deliver(host, store, 99);  // must not crash
  RecordingHandler a;
  host.bind(1, &a);
  host.unbind(1);
  deliver(host, store, 1);
  EXPECT_TRUE(a.received.empty());
}

TEST(Host, CountsPacketsOfUnboundFlowsAsOrphans) {
  PacketStore store;
  Host host(0, "h0");
  EXPECT_EQ(host.orphanPackets(), 0u);
  deliver(host, store, 99);  // empty table
  RecordingHandler a;
  host.bind(1, &a);
  deliver(host, store, 1);  // bound: delivered, not counted
  deliver(host, store, 2);
  host.unbind(1);
  deliver(host, store, 1);
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(host.orphanPackets(), 3u);
  EXPECT_EQ(store.live(), 0u);  // orphans are freed too
}

TEST(Host, RebindReplacesHandler) {
  PacketStore store;
  Host host(0, "h0");
  RecordingHandler a, b;
  host.bind(1, &a);
  host.bind(1, &b);
  deliver(host, store, 1);
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Host, SendGoesOutTheUplink) {
  sim::Simulator simr;
  PacketStore store;
  Host src(0, "src");
  Host dst(1, "dst");
  LoopbackNode loop(dst);
  auto link = std::make_unique<Link>(simr, store, gbps(1), microseconds(1),
                                     QueueConfig{16, 0});
  link->connect(&loop, 0);
  src.attachUplink(std::move(link));

  RecordingHandler h;
  dst.bind(7, &h);
  src.send(packetFor(7));
  simr.run();
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].flow, 7u);
}

// --- flow demux table: open addressing with linear probing -------------

/// The first `n` flow ids at or after `from` whose probe runs start at
/// the same slot of a `slots`-sized table.
std::vector<FlowId> collidingFlows(std::size_t slots, std::size_t n,
                                   FlowId from = 1) {
  const std::size_t home = Host::homeSlot(from, slots);
  std::vector<FlowId> out;
  for (FlowId f = from; out.size() < n; ++f) {
    if (Host::homeSlot(f, slots) == home) out.push_back(f);
  }
  return out;
}

TEST(Host, CollidingHomeSlotsAllResolve) {
  PacketStore store;
  Host host(0, "h0");
  RecordingHandler sizing;
  RecordingHandler h[3];
  host.bind(1000, &sizing);  // sizes the table
  ASSERT_EQ(host.demuxSlots(), 8u);
  const auto flows = collidingFlows(host.demuxSlots(), 3);
  for (std::size_t i = 0; i < flows.size(); ++i) host.bind(flows[i], &h[i]);
  ASSERT_EQ(host.demuxSlots(), 8u);  // still one table: one probe run
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(host.handlerFor(flows[i]), &h[i]);
    deliver(host, store, flows[i]);
    EXPECT_EQ(h[i].received.size(), 1u);
  }
  EXPECT_TRUE(sizing.received.empty());
  // An unbound id with the same home walks the whole run and misses.
  const FlowId absent = collidingFlows(host.demuxSlots(), 4).back();
  EXPECT_EQ(host.handlerFor(absent), nullptr);
}

TEST(Host, UnbindFromTheMiddleOfAProbeRun) {
  PacketStore store;
  Host host(0, "h0");
  RecordingHandler a, b, c;
  host.bind(1000, &a);
  const auto flows = collidingFlows(host.demuxSlots(), 3);
  ASSERT_EQ(host.demuxSlots(), 8u);
  host.bind(flows[0], &a);
  host.bind(flows[1], &b);
  host.bind(flows[2], &c);
  host.unbind(flows[1]);
  // The entry behind the hole must have shifted back, still reachable;
  // the removed one is gone; unbinding it again is a no-op.
  EXPECT_EQ(host.handlerFor(flows[0]), &a);
  EXPECT_EQ(host.handlerFor(flows[1]), nullptr);
  EXPECT_EQ(host.handlerFor(flows[2]), &c);
  EXPECT_EQ(host.handlerFor(1000), &a);
  host.unbind(flows[1]);
  EXPECT_EQ(host.boundFlows(), 3u);
  deliver(host, store, flows[1]);
  deliver(host, store, flows[2]);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(Host, UnbindKeepsEveryOtherFlowReachable) {
  // Dense and strided ids, bound and unbound in a scrambled order: after
  // every unbind, each still-bound flow resolves to its own handler.
  Host host(0, "h0");
  std::vector<RecordingHandler> handlers(200);
  std::vector<FlowId> ids;
  for (FlowId i = 0; i < 100; ++i) ids.push_back(i);
  for (FlowId i = 0; i < 100; ++i) ids.push_back(1'000 + 64 * i);
  for (std::size_t i = 0; i < ids.size(); ++i) host.bind(ids[i], &handlers[i]);
  std::vector<bool> bound(ids.size(), true);
  for (std::size_t k = 0; k < ids.size(); k += 3) {
    host.unbind(ids[k]);
    bound[k] = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(host.handlerFor(ids[i]), bound[i] ? &handlers[i] : nullptr)
          << "flow " << ids[i] << " after unbinding " << ids[k];
    }
  }
  EXPECT_EQ(host.boundFlows(), 133u);
}

TEST(Host, RebindAfterGrowthReplacesHandler) {
  PacketStore store;
  Host host(0, "h0");
  RecordingHandler first, second, other;
  host.bind(7, &first);
  const std::size_t before = host.demuxSlots();
  for (FlowId f = 100; f < 200; ++f) host.bind(f, &other);
  ASSERT_GT(host.demuxSlots(), before);
  EXPECT_LE(2 * host.boundFlows(), host.demuxSlots());  // load <= 1/2
  EXPECT_EQ(host.handlerFor(7), &first);
  host.bind(7, &second);
  EXPECT_EQ(host.boundFlows(), 101u);
  deliver(host, store, 7);
  EXPECT_TRUE(first.received.empty());
  EXPECT_EQ(second.received.size(), 1u);
}

TEST(Host, RebindAtTheLoadLimitKeepsTheTable) {
  // Fill the table to its load limit (half full), then rebind every flow
  // the way tracing decorators do: only a new flow may grow the table.
  Host host(0, "h0");
  std::vector<RecordingHandler> handlers(2);
  host.bind(1, &handlers[0]);
  FlowId next = 2;
  while (2 * (host.boundFlows() + 1) <= host.demuxSlots()) {
    host.bind(next++, &handlers[0]);
  }
  const std::size_t slots = host.demuxSlots();
  ASSERT_EQ(2 * host.boundFlows(), slots);
  for (FlowId f = 1; f < next; ++f) host.bind(f, &handlers[1]);
  EXPECT_EQ(host.demuxSlots(), slots);
  EXPECT_EQ(host.boundFlows(), slots / 2);
  EXPECT_EQ(host.handlerFor(1), &handlers[1]);
  host.bind(next, &handlers[0]);  // a new flow past the limit grows it
  EXPECT_EQ(host.demuxSlots(), 2 * slots);
}

TEST(Host, IdentityAccessors) {
  Host host(42, "the-host");
  EXPECT_EQ(host.id(), 42);
  EXPECT_EQ(host.name(), "the-host");
}

}  // namespace
}  // namespace tlbsim::net
