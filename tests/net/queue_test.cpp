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

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q({4, 0});
  for (FlowId f = 1; f <= 4; ++f) {
    EXPECT_TRUE(q.enqueue(makeData(f, 100_B), 0_ns));
  }
  for (FlowId f = 1; f <= 4; ++f) {
    EXPECT_EQ(q.dequeue(0_ns).flow, f);
  }
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q({2, 0});
  EXPECT_TRUE(q.enqueue(makeData(1, 100_B), 0_ns));
  EXPECT_TRUE(q.enqueue(makeData(2, 100_B), 0_ns));
  EXPECT_FALSE(q.enqueue(makeData(3, 100_B), 0_ns));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.droppedBytes(), 100_B);
  EXPECT_EQ(q.packets(), 2);
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q({10, 0});
  q.enqueue(makeData(1, 100_B), 0_ns);
  q.enqueue(makeData(2, 250_B), 0_ns);
  EXPECT_EQ(q.bytes(), 350_B);
  q.dequeue(0_ns);
  EXPECT_EQ(q.bytes(), 250_B);
  q.dequeue(0_ns);
  EXPECT_EQ(q.bytes(), 0_B);
}

TEST(DropTailQueue, QueueDelayMeasured) {
  DropTailQueue q({10, 0});
  q.enqueue(makeData(1, 100_B), /*now=*/1000_ns);
  SimTime delay = -1_ns;
  q.dequeue(/*now=*/2500_ns, &delay);
  EXPECT_EQ(delay, 1500_ns);
}

TEST(DropTailQueue, EcnMarksAboveThreshold) {
  DropTailQueue q({10, /*ecnThreshold=*/2});
  // Occupancy at enqueue time: 0, 1 -> unmarked; 2, 3 -> marked.
  q.enqueue(makeData(1, 100_B, true), 0_ns);
  q.enqueue(makeData(2, 100_B, true), 0_ns);
  q.enqueue(makeData(3, 100_B, true), 0_ns);
  q.enqueue(makeData(4, 100_B, true), 0_ns);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_TRUE(q.dequeue(0_ns).ce);
  EXPECT_TRUE(q.dequeue(0_ns).ce);
  EXPECT_EQ(q.ecnMarks(), 2u);
}

TEST(DropTailQueue, EcnIgnoresNonCapablePackets) {
  DropTailQueue q({10, 1});
  q.enqueue(makeData(1, 100_B, false), 0_ns);
  q.enqueue(makeData(2, 100_B, false), 0_ns);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_FALSE(q.dequeue(0_ns).ce);
  EXPECT_EQ(q.ecnMarks(), 0u);
}

// Suite name kept from the removed RED marking mode: a standing queue far
// above the threshold still never marks a packet that is not ECN-capable.
TEST(RedQueue, NonEctPacketsNeverMarked) {
  DropTailQueue q({256, 1});
  for (int i = 0; i < 100; ++i) q.enqueue(makeData(1, 1500_B, false), 0_ns);
  EXPECT_EQ(q.packets(), 100);
  EXPECT_EQ(q.ecnMarks(), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(q.dequeue(0_ns).ce);
}

TEST(DropTailQueue, EcnDisabledByZeroThreshold) {
  DropTailQueue q({10, 0});
  for (int i = 0; i < 10; ++i) q.enqueue(makeData(1, 100_B, true), 0_ns);
  EXPECT_EQ(q.ecnMarks(), 0u);
}

// --- ring storage: the queue keeps its packets in a power-of-two ring
// that wraps in place and doubles (up to the buffer size) when full.

TEST(DropTailQueue, RingWrapKeepsFifoOrderAndBytes) {
  DropTailQueue q({16, 0});
  FlowId next = 1;
  FlowId expect = 1;
  const auto sizeOf = [](FlowId f) {
    return ByteCount::fromBytes(100 + 10 * static_cast<std::int64_t>(f));
  };
  for (int i = 0; i < 3; ++i, ++next) {
    q.enqueue(makeData(next, sizeOf(next)), SimTime::fromNs(10 * next));
  }
  // One in, one out: the head walks around the 4-slot ring many times
  // without the ring ever growing.
  for (int round = 0; round < 25; ++round, ++next, ++expect) {
    ASSERT_TRUE(
        q.enqueue(makeData(next, sizeOf(next)), SimTime::fromNs(10 * next)));
    ByteCount want;
    for (FlowId f = expect; f <= next; ++f) want += sizeOf(f);
    EXPECT_EQ(q.bytes(), want);
    EXPECT_EQ(q.recomputeBytes(), want);
    SimTime delay;
    const SimTime now = SimTime::fromNs(10 * next + 5);
    EXPECT_EQ(q.dequeue(now, &delay).flow, expect);
    EXPECT_EQ(delay, now - SimTime::fromNs(10 * expect));
  }
  EXPECT_EQ(q.ringCapacity(), 4u);
  EXPECT_EQ(q.packets(), 3);
  EXPECT_EQ(q.recomputeBytes(), q.bytes());
}

TEST(DropTailQueue, RingGrowsWhileWrapped) {
  DropTailQueue q({64, 0});
  for (FlowId f = 1; f <= 3; ++f) q.enqueue(makeData(f, 100_B), 0_ns);
  EXPECT_EQ(q.dequeue(0_ns).flow, 1u);
  EXPECT_EQ(q.dequeue(0_ns).flow, 2u);
  // The head sits mid-ring; every growth must unroll the wrapped run.
  for (FlowId f = 4; f <= 22; ++f) {
    ASSERT_TRUE(q.enqueue(makeData(f, ByteCount::fromBytes(
                                          static_cast<std::int64_t>(f))),
                          0_ns));
  }
  EXPECT_EQ(q.ringCapacity(), 32u);
  EXPECT_EQ(q.packets(), 20);
  EXPECT_EQ(q.recomputeBytes(), q.bytes());
  EXPECT_EQ(q.bytes(), 100_B + ByteCount::fromBytes((4 + 22) * 19 / 2));
  for (FlowId f = 3; f <= 22; ++f) EXPECT_EQ(q.dequeue(0_ns).flow, f);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0_B);
}

TEST(DropTailQueue, RingStopsAtBufferSizeAndNeverShrinks) {
  DropTailQueue q({6, 0});
  for (FlowId f = 1; f <= 6; ++f) {
    ASSERT_TRUE(q.enqueue(makeData(f, 100_B), 0_ns));
  }
  EXPECT_FALSE(q.enqueue(makeData(7, 100_B), 0_ns));
  EXPECT_EQ(q.ringCapacity(), 8u);  // first power of two holding 6
  while (!q.empty()) q.dequeue(0_ns);
  EXPECT_EQ(q.ringCapacity(), 8u);

  DropTailQueue tiny({2, 0});
  tiny.enqueue(makeData(1, 100_B), 0_ns);
  EXPECT_EQ(tiny.ringCapacity(), 2u);
}

TEST(DropTailQueue, RingMatchesReferenceModel) {
  // Random pushes and pops against a std::deque model: FIFO order, byte
  // accounting, drops and instantaneous ECN marks all agree through every
  // wrap and growth step.
  constexpr int kCapacity = 40;
  constexpr int kEcnK = 5;
  DropTailQueue q({kCapacity, kEcnK});
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
    // Drift between filling and draining phases so the ring sees every
    // occupancy from empty to full, many times over.
    const bool fillPhase = (op / 500) % 2 == 0;
    const bool push = rng.uniform() < (fillPhase ? 0.7 : 0.3);
    if (push) {
      const auto size = ByteCount::fromBytes(
          64 + static_cast<std::int64_t>(rng.uniformInt(1400)));
      const bool ect = rng.uniform() < 0.5;
      const bool accepted = q.enqueue(makeData(next, size, ect), 0_ns);
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
      const Packet got = q.dequeue(0_ns);
      ASSERT_EQ(got.flow, model.front().flow);
      EXPECT_EQ(got.size, model.front().size);
      EXPECT_EQ(got.ce, model.front().ce);
      modelBytes -= model.front().size;
      model.pop_front();
    }
    ASSERT_EQ(q.packets(), static_cast<int>(model.size()));
    ASSERT_EQ(q.bytes(), modelBytes);
    if (op % 97 == 0) {
      ASSERT_EQ(q.recomputeBytes(), modelBytes);
    }
  }
  EXPECT_EQ(q.ecnMarks(), modelMarks);
  EXPECT_EQ(q.drops(), modelDrops);
  EXPECT_GT(modelDrops, 0u);
  EXPECT_EQ(q.ringCapacity(), 64u);
}

}  // namespace
}  // namespace tlbsim::net
