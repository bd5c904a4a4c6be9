#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

Packet makeData(FlowId flow, ByteCount size, bool ecnCapable = false) {
  Packet p;
  p.flow = flow;
  p.type = PacketType::kData;
  p.size = size;
  p.payload = size - 40_B;
  p.ecnCapable = ecnCapable;
  return p;
}

/// Offers `pkt` to `q` in a fresh slot, as a link's send() does: a packet
/// the full queue drops gives its slot back.
bool offer(DropTailQueue& q, PacketStore& store, const Packet& pkt,
           SimTime now) {
  const PacketStore::Handle slot = store.alloc(pkt);
  if (q.enqueue(slot, now)) return true;
  store.free(slot);
  return false;
}

/// Dequeues the head and frees its slot, as a link's event would.
Packet pop(DropTailQueue& q, PacketStore& store, SimTime now = 0_ns,
           SimTime* queueDelay = nullptr) {
  const PacketStore::Handle slot = q.dequeue(now, queueDelay);
  const Packet pkt = store[slot].pkt;
  store.free(slot);
  return pkt;
}

TEST(DropTailQueue, FifoOrder) {
  PacketStore store;
  DropTailQueue q(store, {4, 0});
  for (FlowId f = 1; f <= 4; ++f) {
    EXPECT_TRUE(offer(q, store, makeData(f, 100_B), 0_ns));
  }
  for (FlowId f = 1; f <= 4; ++f) {
    EXPECT_EQ(pop(q, store).flow, f);
  }
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, DropsWhenFull) {
  PacketStore store;
  DropTailQueue q(store, {2, 0});
  EXPECT_TRUE(offer(q, store, makeData(1, 100_B), 0_ns));
  EXPECT_TRUE(offer(q, store, makeData(2, 100_B), 0_ns));
  EXPECT_FALSE(offer(q, store, makeData(3, 100_B), 0_ns));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.droppedBytes(), 100_B);
  EXPECT_EQ(q.packets(), 2);
}

TEST(DropTailQueue, ByteAccounting) {
  PacketStore store;
  DropTailQueue q(store, {10, 0});
  offer(q, store, makeData(1, 100_B), 0_ns);
  offer(q, store, makeData(2, 250_B), 0_ns);
  EXPECT_EQ(q.bytes(), 350_B);
  pop(q, store);
  EXPECT_EQ(q.bytes(), 250_B);
  pop(q, store);
  EXPECT_EQ(q.bytes(), 0_B);
}

TEST(DropTailQueue, QueueDelayMeasured) {
  PacketStore store;
  DropTailQueue q(store, {10, 0});
  offer(q, store, makeData(1, 100_B), /*now=*/1000_ns);
  SimTime delay = -1_ns;
  pop(q, store, /*now=*/2500_ns, &delay);
  EXPECT_EQ(delay, 1500_ns);
}

TEST(DropTailQueue, EcnMarksAboveThreshold) {
  PacketStore store;
  DropTailQueue q(store, {10, /*ecnThreshold=*/2});
  // Occupancy at enqueue time: 0, 1 -> unmarked; 2, 3 -> marked.
  offer(q, store, makeData(1, 100_B, true), 0_ns);
  offer(q, store, makeData(2, 100_B, true), 0_ns);
  offer(q, store, makeData(3, 100_B, true), 0_ns);
  offer(q, store, makeData(4, 100_B, true), 0_ns);
  EXPECT_FALSE(pop(q, store).ce);
  EXPECT_FALSE(pop(q, store).ce);
  EXPECT_TRUE(pop(q, store).ce);
  EXPECT_TRUE(pop(q, store).ce);
  EXPECT_EQ(q.ecnMarks(), 2u);
}

TEST(DropTailQueue, EcnIgnoresNonCapablePackets) {
  PacketStore store;
  DropTailQueue q(store, {10, 1});
  offer(q, store, makeData(1, 100_B, false), 0_ns);
  offer(q, store, makeData(2, 100_B, false), 0_ns);
  EXPECT_FALSE(pop(q, store).ce);
  EXPECT_FALSE(pop(q, store).ce);
  EXPECT_EQ(q.ecnMarks(), 0u);
}

// Suite name kept from the removed RED marking mode: a standing queue far
// above the threshold still never marks a packet that is not ECN-capable.
TEST(RedQueue, NonEctPacketsNeverMarked) {
  PacketStore store;
  DropTailQueue q(store, {256, 1});
  for (int i = 0; i < 100; ++i) {
    offer(q, store, makeData(1, 1500_B, false), 0_ns);
  }
  EXPECT_EQ(q.packets(), 100);
  EXPECT_EQ(q.ecnMarks(), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(pop(q, store).ce);
}

TEST(DropTailQueue, EcnDisabledByZeroThreshold) {
  PacketStore store;
  DropTailQueue q(store, {10, 0});
  for (int i = 0; i < 10; ++i) offer(q, store, makeData(1, 100_B, true), 0_ns);
  EXPECT_EQ(q.ecnMarks(), 0u);
}

// --- store: the queue links slots of a shared PacketStore into a FIFO;
// the store grows by whole chunks that never move.

TEST(DropTailQueue, SteadyTrafficReusesTheSameSlots) {
  PacketStore store;
  DropTailQueue q(store, {16, 0});
  EXPECT_EQ(store.capacity(), 0u);  // the first chunk waits for a packet
  FlowId next = 1;
  FlowId expect = 1;
  const auto sizeOf = [](FlowId f) {
    return ByteCount::fromBytes(100 + 10 * static_cast<std::int64_t>(f));
  };
  for (int i = 0; i < 3; ++i, ++next) {
    offer(q, store, makeData(next, sizeOf(next)), SimTime::fromNs(10 * next));
  }
  // One in, one out: the slot the head frees is the one the next packet
  // takes, so the queue cycles through four slots.
  for (int round = 0; round < 25; ++round, ++next, ++expect) {
    ASSERT_TRUE(offer(q, store, makeData(next, sizeOf(next)),
                      SimTime::fromNs(10 * next)));
    EXPECT_EQ(store.live(), 4u);
    ByteCount want;
    for (FlowId f = expect; f <= next; ++f) want += sizeOf(f);
    EXPECT_EQ(q.bytes(), want);
    EXPECT_EQ(q.recomputeBytes(), want);
    SimTime delay;
    const SimTime now = SimTime::fromNs(10 * next + 5);
    EXPECT_EQ(pop(q, store, now, &delay).flow, expect);
    EXPECT_EQ(delay, now - SimTime::fromNs(10 * expect));
  }
  EXPECT_EQ(store.capacity(), PacketStore::kChunkSlots);
  EXPECT_EQ(store.live(), 3u);
  EXPECT_EQ(q.packets(), 3);
  EXPECT_EQ(q.recomputeBytes(), q.bytes());
}

TEST(DropTailQueue, QueuesSharingAStoreKeepTheirOrderAcrossChunks) {
  // Two queues take slots in turn, so their slots interleave in the
  // store; together they outgrow the first chunk while both hold packets.
  PacketStore store;
  DropTailQueue a(store, {400, 0});
  DropTailQueue b(store, {400, 0});
  for (FlowId f = 1; f <= 2; ++f) offer(a, store, makeData(f, 100_B), 0_ns);
  const PacketStore::Handle third = store.alloc(makeData(3, 100_B));
  ASSERT_TRUE(a.enqueue(third, 0_ns));
  EXPECT_EQ(pop(a, store).flow, 1u);
  const Packet* early = &store[third].pkt;  // in the first chunk
  for (FlowId f = 4; f <= 303; ++f) {
    DropTailQueue& q = f % 2 == 0 ? a : b;
    const auto size = ByteCount::fromBytes(static_cast<std::int64_t>(f));
    ASSERT_TRUE(offer(q, store, makeData(f, size), 0_ns));
  }
  EXPECT_EQ(store.capacity(), 2 * PacketStore::kChunkSlots);
  EXPECT_EQ(store.live(), 302u);
  EXPECT_EQ(early->flow, 3u);  // the growth moved no stored packet
  EXPECT_EQ(a.recomputeBytes(), a.bytes());
  EXPECT_EQ(b.recomputeBytes(), b.bytes());
  EXPECT_EQ(pop(a, store).flow, 2u);
  EXPECT_EQ(pop(a, store).flow, 3u);
  for (FlowId f = 4; f <= 303; f += 2) EXPECT_EQ(pop(a, store).flow, f);
  for (FlowId f = 5; f <= 303; f += 2) EXPECT_EQ(pop(b, store).flow, f);
  EXPECT_TRUE(a.empty() && b.empty());
  EXPECT_EQ(a.bytes() + b.bytes(), 0_B);
  EXPECT_EQ(store.live(), 0u);
  EXPECT_EQ(store.capacity(), 2 * PacketStore::kChunkSlots);
}

TEST(DropTailQueue, ADroppedPacketTakesNoSlot) {
  PacketStore store;
  {
    DropTailQueue q(store, {6, 0});
    for (FlowId f = 1; f <= 6; ++f) {
      ASSERT_TRUE(offer(q, store, makeData(f, 100_B), 0_ns));
    }
    // The full queue refuses the slot: it stays the caller's to free.
    const PacketStore::Handle seventh = store.alloc(makeData(7, 100_B));
    EXPECT_FALSE(q.enqueue(seventh, 0_ns));
    EXPECT_EQ(store[seventh].state, PacketStore::State::kHeld);
    store.free(seventh);
    EXPECT_EQ(store.live(), 6u);
    pop(q, store);
    EXPECT_EQ(store.live(), 5u);
  }
  // A queue destroyed with packets in it returns nothing: the slots go
  // with the store, whatever the order the two are destroyed in.
  EXPECT_EQ(store.live(), 5u);
  EXPECT_EQ(store.capacity(), PacketStore::kChunkSlots);
}

TEST(DropTailQueue, RingMatchesReferenceModel) {
  // Random pushes and pops against a std::deque model: FIFO order, byte
  // accounting, drops, instantaneous ECN marks and the store's live slots
  // all agree at every step.
  constexpr int kCapacity = 40;
  constexpr int kEcnK = 5;
  PacketStore store;
  DropTailQueue q(store, {kCapacity, kEcnK});
  struct Ref {
    FlowId flow;
    ByteCount size;
    bool ce;
  };
  std::deque<Ref> model;
  ByteCount modelBytes;
  std::uint64_t modelMarks = 0;
  std::uint64_t modelDrops = 0;
  Rng rng(42);
  FlowId next = 1;
  for (int op = 0; op < 20'000; ++op) {
    // Drift between filling and draining phases so the queue sees every
    // occupancy from empty to full, many times over.
    const bool fillPhase = (op / 500) % 2 == 0;
    const bool push = rng.uniform() < (fillPhase ? 0.7 : 0.3);
    if (push) {
      const auto size = ByteCount::fromBytes(
          64 + static_cast<std::int64_t>(rng.uniformInt(1400)));
      const bool ect = rng.uniform() < 0.5;
      const bool accepted = offer(q, store, makeData(next, size, ect), 0_ns);
      if (static_cast<int>(model.size()) >= kCapacity) {
        EXPECT_FALSE(accepted);
        ++modelDrops;
      } else {
        ASSERT_TRUE(accepted);
        const bool mark = ect && static_cast<int>(model.size()) >= kEcnK;
        modelMarks += mark ? 1 : 0;
        model.push_back({next, size, mark});
        modelBytes += size;
      }
      ++next;
    } else if (!model.empty()) {
      const Packet got = pop(q, store);
      ASSERT_EQ(got.flow, model.front().flow);
      EXPECT_EQ(got.size, model.front().size);
      EXPECT_EQ(got.ce, model.front().ce);
      modelBytes -= model.front().size;
      model.pop_front();
    }
    ASSERT_EQ(q.packets(), static_cast<int>(model.size()));
    ASSERT_EQ(store.live(), model.size());
    ASSERT_EQ(q.bytes(), modelBytes);
    if (op % 97 == 0) {
      ASSERT_EQ(q.recomputeBytes(), modelBytes);
    }
  }
  EXPECT_EQ(q.ecnMarks(), modelMarks);
  EXPECT_EQ(q.drops(), modelDrops);
  EXPECT_GT(modelDrops, 0u);
}

}  // namespace
}  // namespace tlbsim::net
