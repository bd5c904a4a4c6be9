#include <gtest/gtest.h>

#include <set>

#include "lb/drill.hpp"
#include "lb/ecmp.hpp"
#include "lb/fixed_granularity.hpp"
#include "lb/letflow.hpp"
#include "lb/presto.hpp"
#include "lb/rps.hpp"
#include "lb/selector_util.hpp"
#include "net/switch.hpp"

namespace tlbsim::lb {
namespace {

net::UplinkView makeView(std::vector<ByteCount> queueBytes, int firstPort = 0) {
  net::UplinkView v;
  for (std::size_t i = 0; i < queueBytes.size(); ++i) {
    v.push_back(
        net::PortView{firstPort + static_cast<int>(i), queueBytes[i]});
  }
  return v;
}

net::Packet dataPacket(FlowId flow, ByteCount payload = 1460_B) {
  net::Packet p;
  p.flow = flow;
  p.type = net::PacketType::kData;
  p.payload = payload;
  p.size = payload + 40_B;
  return p;
}

// ---------------------------------------------------------------- util --

TEST(SelectorUtil, ShortestQueuePicksMinimum) {
  Rng rng(1);
  const auto v = makeView({500_B, 100_B, 900_B});
  EXPECT_EQ(shortestQueueIndex(v, rng), 1u);
}

TEST(SelectorUtil, TiesBrokenAcrossAllMinima) {
  Rng rng(2);
  const auto v = makeView({100_B, 100_B, 900_B, 100_B});
  std::set<std::size_t> chosen;
  for (int i = 0; i < 200; ++i) chosen.insert(shortestQueueIndex(v, rng));
  EXPECT_EQ(chosen, (std::set<std::size_t>{0, 1, 3}));
}

TEST(SelectorUtil, ContainsAndLookupByPort) {
  const auto v = makeView({10_B, 20_B, 30_B}, /*firstPort=*/5);
  EXPECT_NE(findPort(v, 6), nullptr);
  EXPECT_EQ(findPort(v, 2), nullptr);
  ASSERT_NE(findPort(v, 7), nullptr);
  EXPECT_EQ(findPort(v, 7)->queueBytes, 30_B);
  EXPECT_EQ(findPort(v, 99), nullptr);
  // -1 is every scheme's "no port chosen yet": it is never in a view.
  EXPECT_EQ(findPort(v, -1), nullptr);
  EXPECT_EQ(findPort(net::UplinkView{}, 5), nullptr);
}

TEST(SelectorUtil, LeastCostPicksUniformlyAmongTiesOfAnyCost) {
  // The cost ignores the queues: even ports cost 1, odd ports 2, and the
  // even ports hold the longest queues, so a queue-based pick would miss.
  const auto v = makeView({900_B, 0_B, 800_B, 0_B, 700_B, 0_B});
  const auto cost = [](const net::PortView& u) {
    return u.port % 2 == 0 ? 1.0 : 2.0;
  };
  Rng rng(3);
  std::vector<int> picks(v.size(), 0);
  const int draws = 6000;
  for (int i = 0; i < draws; ++i) ++picks[leastCostIndex(v, rng, cost)];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_EQ(picks[i], 0) << "costlier port " << i;
    } else {
      EXPECT_NEAR(static_cast<double>(picks[i]) / draws, 1.0 / 3.0, 0.03)
          << "tied port " << i;
    }
  }
}

TEST(SmoothedWaits, UnsampledPortReadsItsFallback) {
  SmoothedWaits waits;
  EXPECT_EQ(waits.get(0, 0.5), 0.5);
  waits.sample({net::PortView{1, 3000_B, 1e9, 0.0}});
  EXPECT_EQ(waits.get(0, 0.5), 0.5);
  EXPECT_EQ(waits.get(7, 0.25), 0.25);
  EXPECT_EQ(waits.get(-1, 0.125), 0.125);
}

TEST(SmoothedWaits, FirstSampleIsTheValueThenTheAverageMoves) {
  SmoothedWaits waits;
  const net::PortView busy{2, 30000_B, 1e9, 1e-6};
  waits.sample({busy});
  EXPECT_DOUBLE_EQ(waits.get(2, -1.0), drainTime(busy));
  const net::PortView idle{2, 0_B, 1e9, 1e-6};
  waits.sample({idle});
  const double expected = (1.0 - SmoothedWaits::kGain) * drainTime(busy) +
                          SmoothedWaits::kGain * drainTime(idle);
  EXPECT_DOUBLE_EQ(waits.get(2, -1.0), expected);
}

TEST(SmoothedWaits, PortFirstSeenLaterReadsFallbackUntilThatTick) {
  // A port that was down at the first ticks is missing from their views.
  SmoothedWaits waits;
  const net::PortView up{0, 1500_B, 1e9, 0.0};
  const net::PortView late{3, 15000_B, 1e9, 0.0};
  waits.sample({up});
  waits.sample({up});
  EXPECT_EQ(waits.get(3, 0.75), 0.75);
  waits.sample({up, late});
  EXPECT_DOUBLE_EQ(waits.get(3, 0.75), drainTime(late));
  EXPECT_DOUBLE_EQ(waits.get(0, 0.75), drainTime(up));
}

// ---------------------------------------------------------------- ECMP --

TEST(Ecmp, DeterministicPerFlow) {
  Ecmp ecmp(42);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = ecmp.selectUplink(dataPacket(7), v);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ecmp.selectUplink(dataPacket(7), v), first);
  }
}

TEST(Ecmp, SpreadsAcrossFlows) {
  Ecmp ecmp(42);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  std::set<int> ports;
  for (FlowId f = 1; f <= 100; ++f) {
    ports.insert(ecmp.selectUplink(dataPacket(f), v));
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(Ecmp, SaltChangesMapping) {
  Ecmp a(1);
  Ecmp b(2);
  const auto v = makeView(std::vector<ByteCount>(16, 0_B));
  int differs = 0;
  for (FlowId f = 1; f <= 64; ++f) {
    if (a.selectUplink(dataPacket(f), v) != b.selectUplink(dataPacket(f), v)) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 32);
}

TEST(Ecmp, ObliviousToQueueState) {
  Ecmp ecmp(42);
  const int p1 = ecmp.selectUplink(dataPacket(7), makeView({0_B, 0_B, 0_B}));
  const int p2 = ecmp.selectUplink(dataPacket(7), makeView({9000_B, 9000_B, 0_B}));
  EXPECT_EQ(p1, p2);
}

// ----------------------------------------------------------------- RPS --

TEST(Rps, CoversAllPorts) {
  Rps rps(3);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B, 0_B});
  std::set<int> ports;
  for (int i = 0; i < 500; ++i) ports.insert(rps.selectUplink(dataPacket(1), v));
  EXPECT_EQ(ports.size(), 5u);
}

TEST(Rps, RoughlyUniform) {
  Rps rps(4);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[static_cast<std::size_t>(rps.selectUplink(dataPacket(1), v))];
  }
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

// --------------------------------------------------------------- DRILL --

TEST(Drill, AlwaysReturnsValidPort) {
  Drill drill(5);
  const auto v = makeView({100_B, 200_B, 300_B}, /*firstPort=*/10);
  for (int i = 0; i < 100; ++i) {
    const int p = drill.selectUplink(dataPacket(1), v);
    EXPECT_GE(p, 10);
    EXPECT_LE(p, 12);
  }
}

TEST(Drill, PrefersShortQueuesOnAverage) {
  Drill drill(6);
  const auto v = makeView({0_B, 100000_B, 100000_B, 100000_B});
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    if (drill.selectUplink(dataPacket(1), v) == 0) ++hits;
  }
  // With memory + 2 samples, the empty queue should win almost always
  // after it is discovered once.
  EXPECT_GT(hits, 900);
}

TEST(Drill, MemorySurvivesGroupChanges) {
  Drill drill(7);
  drill.selectUplink(dataPacket(1), makeView({0_B, 100_B}, /*firstPort=*/0));
  // New group without the remembered port: must still return a valid one.
  const auto v2 = makeView({50_B, 60_B}, /*firstPort=*/10);
  const int p = drill.selectUplink(dataPacket(1), v2);
  EXPECT_TRUE(p == 10 || p == 11);
}

TEST(ShortestQueue, AlwaysPicksGlobalMinimum) {
  ShortestQueue sq(8);
  const auto v = makeView({500_B, 100_B, 900_B, 200_B});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sq.selectUplink(dataPacket(1), v), 1);
  }
}

// -------------------------------------------------------------- Presto --

TEST(Presto, SameCellSamePort) {
  Presto presto(9, 64 * kKiB);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  // First 44 full segments stay within the first 64 KB flowcell.
  const int first = presto.selectUplink(dataPacket(1), v);
  for (int i = 1; i < 44; ++i) {
    EXPECT_EQ(presto.selectUplink(dataPacket(1), v), first);
  }
}

TEST(Presto, AdvancesRoundRobinPerFlowcell) {
  Presto presto(9, 64 * kKiB);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  std::vector<int> cellPorts;
  int last = -1;
  for (int i = 0; i < 200; ++i) {  // ~4.5 flowcells of payload
    const int p = presto.selectUplink(dataPacket(1), v);
    if (p != last) {
      cellPorts.push_back(p);
      last = p;
    }
  }
  ASSERT_GE(cellPorts.size(), 4u);
  for (std::size_t i = 1; i < cellPorts.size(); ++i) {
    EXPECT_EQ(cellPorts[i], (cellPorts[i - 1] + 1) % 4) << "cell " << i;
  }
}

TEST(Presto, IndependentPerFlowState) {
  Presto presto(9, 64 * kKiB);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B, 0_B, 0_B, 0_B});
  const int a = presto.selectUplink(dataPacket(1), v);
  for (int i = 0; i < 100; ++i) presto.selectUplink(dataPacket(2), v);
  // Flow 1 has sent < 64 KB: still in its first cell.
  EXPECT_EQ(presto.selectUplink(dataPacket(1), v), a);
  EXPECT_EQ(presto.flowState()->size(), 2u);
}

TEST(Presto, BoundaryCrossingPacketRidesItsFirstByteCell) {
  // Cell size chosen so the third segment straddles the boundary: its
  // first byte is at offset 2920 < 4000, so it must ride cell 0; only the
  // NEXT packet (first byte 4380 >= 4000) moves to cell 1. The regression
  // was advancing the byte counter before deriving the cell, which pushed
  // the straddling packet itself onto the next cell.
  Presto presto(9, 4000_B);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = presto.selectUplink(dataPacket(1), v);   // bytes 0-1459
  EXPECT_EQ(presto.selectUplink(dataPacket(1), v), first);   // 1460-2919
  EXPECT_EQ(presto.selectUplink(dataPacket(1), v), first);   // 2920-4379
  const int next = presto.selectUplink(dataPacket(1), v);    // 4380-5839
  EXPECT_NE(next, first);
  // Round-robin stride of exactly one uplink.
  auto portIndex = [&v](int port) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i].port == port) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_EQ(portIndex(next), (portIndex(first) + 1) % 4);
}

TEST(Presto, ExactCellFillAdvancesOnNextPacket) {
  // 2 segments fill a 2920-byte cell exactly; the boundary packet's first
  // byte is the new cell's first byte, so the switch happens precisely at
  // packet 3 — not 2 (pre-advance bug) and not 4.
  Presto presto(9, 2920_B);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = presto.selectUplink(dataPacket(1), v);
  EXPECT_EQ(presto.selectUplink(dataPacket(1), v), first);
  EXPECT_NE(presto.selectUplink(dataPacket(1), v), first);
}

TEST(Presto, ControlPacketsDoNotAdvanceCells) {
  Presto presto(9, 64 * kKiB);
  const auto v = makeView({0_B, 0_B, 0_B});
  const int first = presto.selectUplink(dataPacket(1), v);
  net::Packet ack;
  ack.flow = 1;
  ack.type = net::PacketType::kAck;
  ack.size = 40_B;
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(presto.selectUplink(ack, v), first);
  }
}

// ------------------------------------------------------------- LetFlow --

TEST(LetFlow, SticksWithinTimeout) {
  // Without attach() the selector treats time as 0: always same flowlet.
  LetFlow lf(10, microseconds(150));
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = lf.selectUplink(dataPacket(1), v);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lf.selectUplink(dataPacket(1), v), first);
  }
  EXPECT_EQ(lf.flowletsStarted(), 1u);
}

TEST(LetFlow, GapStartsNewFlowlet) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "sw");
  LetFlow lf(11, microseconds(150));
  lf.attach(sw, simr);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});

  lf.selectUplink(dataPacket(1), v);
  // Advance time beyond the flowlet timeout. (Bounded run: attach()
  // registers a periodic purge timer that would otherwise tick forever.)
  simr.run(microseconds(500));
  lf.selectUplink(dataPacket(1), v);
  EXPECT_EQ(lf.flowletsStarted(), 2u);
}

TEST(LetFlow, NoGapNoSwitchAcrossManyPackets) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "sw");
  LetFlow lf(12, microseconds(150));
  lf.attach(sw, simr);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  // Packets every 10 us: well inside the 150 us timeout.
  int switches = 0;
  int last = -1;
  SimTime t;
  for (int i = 0; i < 50; ++i) {
    const int p = lf.selectUplink(dataPacket(1), v);
    if (last >= 0 && p != last) ++switches;
    last = p;
    t += microseconds(10);
    simr.run(t);
  }
  EXPECT_EQ(switches, 0);
}

// -------------------------------------------------- FixedGranularity --

TEST(FixedGranularity, SwitchesEveryKPackets) {
  FixedGranularity fg(13, /*K=*/5);
  const auto v = makeView({0_B, 10_B, 20_B, 30_B});
  std::vector<int> ports;
  for (int i = 0; i < 20; ++i) {
    ports.push_back(fg.selectUplink(dataPacket(1), v));
  }
  // Decisions happen at packets 0, 5, 10, 15; in between the port is pinned.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ports[static_cast<std::size_t>(i)], ports[static_cast<std::size_t>(i / 5 * 5)]);
  }
}

TEST(FixedGranularity, FlowLevelNeverSwitches) {
  FixedGranularity fg(14, FixedGranularity::kFlowLevel);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = fg.selectUplink(dataPacket(1), v);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(fg.selectUplink(dataPacket(1), v), first);
  }
}

TEST(FixedGranularity, ControlPacketsDoNotCountTowardK) {
  FixedGranularity fg(15, /*K=*/2);
  const auto v = makeView({0_B, 0_B, 0_B});
  const int first = fg.selectUplink(dataPacket(1), v);
  net::Packet ack;
  ack.flow = 1;
  ack.type = net::PacketType::kAck;
  ack.size = 40_B;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fg.selectUplink(ack, v), first);
  }
}

TEST(FixedGranularity, PerFlowCounters) {
  FixedGranularity fg(16, /*K=*/3);
  const auto v = makeView({0_B, 0_B});
  // Interleave two flows; each should hold its port for 3 of ITS packets.
  const int p1 = fg.selectUplink(dataPacket(1), v);
  const int p2 = fg.selectUplink(dataPacket(2), v);
  EXPECT_EQ(fg.selectUplink(dataPacket(1), v), p1);
  EXPECT_EQ(fg.selectUplink(dataPacket(2), v), p2);
  EXPECT_EQ(fg.selectUplink(dataPacket(1), v), p1);
  EXPECT_EQ(fg.selectUplink(dataPacket(2), v), p2);
}

}  // namespace
}  // namespace tlbsim::lb
