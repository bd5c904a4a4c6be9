// Long-flow switching discipline: granularity floor, randomized escape,
// q_th capping — the stabilizers documented in DESIGN.md.
#include <gtest/gtest.h>

#include <set>

#include "core/tlb.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::core {
namespace {

net::UplinkView makeView(std::vector<ByteCount> queueBytes) {
  net::UplinkView v;
  for (std::size_t i = 0; i < queueBytes.size(); ++i) {
    v.push_back(net::PortView{static_cast<int>(i), queueBytes[i], 1e9, 0.0});
  }
  return v;
}

net::Packet packet(FlowId flow, net::PacketType type, ByteCount payload = 0_B) {
  net::Packet p;
  p.flow = flow;
  p.type = type;
  p.payload = payload;
  p.size = payload + 40_B;
  return p;
}

/// Drives a flow long (past 100 KB) on empty queues; returns its port.
int makeLong(Tlb& tlb, FlowId flow) {
  tlb.selectUplink(packet(flow, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  int port = -1;
  for (int i = 0; i < 80; ++i) {
    port = tlb.selectUplink(packet(flow, net::PacketType::kData, 1460_B),
                            makeView({0_B, 0_B, 0_B}));
  }
  return port;
}

TlbConfig overrideConfig(ByteCount qth) {
  TlbConfig cfg;
  cfg.qthOverrideBytes = qth;
  return cfg;
}

TEST(TlbSwitching, GranularityFloorBlocksImmediateReswitch) {
  // qth = 10 KB but the floor is W_L (64 KB): after one switch the flow
  // must send >= 64 KB before it may switch again, no matter how bad the
  // new queue looks.
  Tlb tlb(overrideConfig(10000_B), 3, 1);
  const int start = makeLong(tlb, 1);
  // Force a switch: current port deep, another empty.
  std::vector<ByteCount> q = {120000_B, 120000_B, 120000_B};
  q[static_cast<std::size_t>(start)] = 120000_B;
  std::vector<ByteCount> q2 = q;
  q2[(static_cast<std::size_t>(start) + 1) % 3] = 0_B;
  const int moved =
      tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), makeView(q2));
  ASSERT_NE(moved, start);
  EXPECT_EQ(tlb.longFlowSwitches(), 1u);
  // Immediately adverse conditions: may NOT switch again within 64 KB.
  std::vector<ByteCount> q3 = {0_B, 0_B, 0_B};
  q3[static_cast<std::size_t>(moved)] = 200000_B;
  for (int i = 0; i < 20; ++i) {  // 20 * 1460 B << 64 KB
    EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                               makeView(q3)),
              moved);
  }
  EXPECT_EQ(tlb.longFlowSwitches(), 1u);
}

TEST(TlbSwitching, EscapeRequiresSubstantiallyBetterTarget) {
  // Current queue above qth but every alternative within 2x: stay.
  Tlb tlb(overrideConfig(30000_B), 3, 1);
  const int start = makeLong(tlb, 1);
  std::vector<ByteCount> q = {60000_B, 60000_B, 60000_B};
  q[static_cast<std::size_t>(start)] = 80000_B;  // others at 75% of current
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                               makeView(q)),
              start);
  }
  EXPECT_EQ(tlb.longFlowSwitches(), 0u);
}

TEST(TlbSwitching, EscapeTargetIsRandomizedAmongQualifiers) {
  // Many eligible flows escaping a deep queue must not all herd onto one
  // target port.
  std::set<int> targets;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Tlb tlb(overrideConfig(30000_B), 4, seed);
    tlb.selectUplink(packet(1, net::PacketType::kSyn),
                     makeView({0_B, 0_B, 0_B, 0_B}));
    int start = -1;
    for (int i = 0; i < 80; ++i) {
      std::vector<ByteCount> zero = {0_B, 0_B, 0_B, 0_B};
      start = tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                               makeView(zero));
    }
    std::vector<ByteCount> q = {0_B, 0_B, 0_B, 0_B};
    q[static_cast<std::size_t>(start)] = 100000_B;
    const int next =
        tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), makeView(q));
    if (next != start) targets.insert(next);
  }
  // Across seeds the escape target must vary.
  EXPECT_GE(targets.size(), 2u);
}

TEST(TlbSwitching, QthCapAppliesWhenConfigured) {
  TlbConfig cfg;
  cfg.qthCapPackets = 65;
  cfg.packetWireSize = 1500_B;
  cfg.bufferPackets = 512;
  GranularityCalculator calc(cfg, 15);
  // Overloaded shorts: uncapped this would clamp at the buffer (768000).
  const ByteCount qth = calc.update(5000, 30, 70 * kKB);
  EXPECT_EQ(qth, 65 * 1500_B);
}

TEST(TlbSwitching, SwitchCounterTracksMoves) {
  Tlb tlb(overrideConfig(30000_B), 3, 1);
  const int start = makeLong(tlb, 1);
  std::vector<ByteCount> q = {0_B, 0_B, 0_B};
  q[static_cast<std::size_t>(start)] = 100000_B;
  tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), makeView(q));
  EXPECT_EQ(tlb.longFlowSwitches(), 1u);
}

}  // namespace
}  // namespace tlbsim::core
