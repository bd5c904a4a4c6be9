#include "core/tlb.hpp"

#include <gtest/gtest.h>

#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::core {
namespace {

net::UplinkView makeView(std::vector<ByteCount> queueBytes) {
  net::UplinkView v;
  for (std::size_t i = 0; i < queueBytes.size(); ++i) {
    v.push_back(
        net::PortView{static_cast<int>(i), queueBytes[i], 1e9, 0.0});
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

TlbConfig config(ByteCount qthOverride = -1_B) {
  TlbConfig cfg;
  cfg.qthOverrideBytes = qthOverride;
  return cfg;
}

TEST(Tlb, ShortFlowGoesToShortestQueue) {
  Tlb tlb(config(), 3, 1);
  const auto v = makeView({5000_B, 100_B, 9000_B});
  tlb.selectUplink(packet(1, net::PacketType::kSyn), v);
  EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), v), 1);
}

TEST(Tlb, ShortFlowSwitchesPerPacket) {
  Tlb tlb(config(), 3, 1);
  tlb.selectUplink(packet(1, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                             makeView({9000_B, 0_B, 20000_B})),
            1);
  EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                             makeView({9000_B, 9000_B, 0_B})),
            2);
}

TEST(Tlb, ShortFlowSticksWithinOnePacketOfMinimum) {
  // Ablation mode (sprayStickiness > 0): moving for a sub-packet queue
  // difference cannot reduce the wait but does reorder the in-flight
  // burst, so the flow stays put.
  auto cfg = config();
  cfg.sprayStickiness = 1500_B;
  Tlb tlb(cfg, 3, 1);
  tlb.selectUplink(packet(1, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  const int first = tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                                     makeView({0_B, 0_B, 0_B}));
  std::vector<ByteCount> q = {1400_B, 1400_B, 1400_B};
  q[static_cast<std::size_t>(first)] = 1400_B;  // all within one packet
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                               makeView(q)),
              first);
  }
}

TEST(Tlb, LongFlowSticksBelowThreshold) {
  Tlb tlb(config(/*qthOverride=*/50000_B), 3, 1);
  tlb.selectUplink(packet(1, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  // Push the flow across the 100 KB classification boundary.
  net::UplinkView v = makeView({0_B, 0_B, 0_B});
  int port = -1;
  for (int i = 0; i < 80; ++i) {
    port = tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), v);
  }
  EXPECT_TRUE(tlb.flowTable().contains(1));
  ASSERT_GE(port, 0);
  // Now long: stays put even when its queue is the longest, as long as it
  // is below q_th.
  std::vector<ByteCount> q = {0_B, 0_B, 0_B};
  q[static_cast<std::size_t>(port)] = 40000_B;  // below 50 KB threshold
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                               makeView(q)),
              port);
  }
  EXPECT_EQ(tlb.longFlowSwitches(), 0u);
}

TEST(Tlb, LongFlowSwitchesAtThreshold) {
  Tlb tlb(config(/*qthOverride=*/50000_B), 3, 1);
  tlb.selectUplink(packet(1, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  int port = -1;
  for (int i = 0; i < 80; ++i) {
    port = tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                            makeView({0_B, 0_B, 0_B}));
  }
  std::vector<ByteCount> q = {10000_B, 10000_B, 10000_B};
  q[static_cast<std::size_t>(port)] = 60000_B;  // above q_th = 50 KB
  const int next =
      tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), makeView(q));
  EXPECT_NE(next, port);
  EXPECT_EQ(tlb.longFlowSwitches(), 1u);
}

TEST(Tlb, SynAndSynAckBothRegisterFlows) {
  Tlb tlb(config(), 3, 1);
  const auto v = makeView({0_B, 0_B, 0_B});
  tlb.selectUplink(packet(1, net::PacketType::kSyn), v);
  tlb.selectUplink(packet(2, net::PacketType::kSynAck), v);
  EXPECT_EQ(tlb.flowTable().shortCount(), 2);
}

TEST(Tlb, FinRetiresFlow) {
  Tlb tlb(config(), 3, 1);
  const auto v = makeView({0_B, 0_B, 0_B});
  tlb.selectUplink(packet(1, net::PacketType::kSyn), v);
  EXPECT_EQ(tlb.flowTable().shortCount(), 1);
  tlb.selectUplink(packet(1, net::PacketType::kFin), v);
  EXPECT_EQ(tlb.flowTable().shortCount(), 0);
  EXPECT_EQ(tlb.flowTable().size(), 0u);
}

TEST(Tlb, MissedSynStillTracked) {
  Tlb tlb(config(), 3, 1);
  const auto v = makeView({0_B, 0_B, 0_B});
  tlb.selectUplink(packet(9, net::PacketType::kData, 1460_B), v);
  EXPECT_EQ(tlb.flowTable().shortCount(), 1);
}

TEST(Tlb, ControlTickUpdatesThresholdFromLiveCounts) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "leaf");
  Tlb tlb(config(), 15, 1);
  tlb.attach(sw, simr);

  const auto v = makeView(std::vector<ByteCount>(15, 0_B));
  // Register enough long flows (by volume) that they contend for the 15
  // paths — with rate-capped long flows, q_th only goes positive once the
  // long count exceeds the paths left over from the short flows.
  for (FlowId f = 1; f <= 24; ++f) {
    tlb.selectUplink(packet(f, net::PacketType::kSyn), v);
    for (int i = 0; i < 80; ++i) {
      tlb.selectUplink(packet(f, net::PacketType::kData, 1460_B), v);
    }
  }
  for (FlowId f = 100; f < 200; ++f) {
    tlb.selectUplink(packet(f, net::PacketType::kSyn), v);
  }
  EXPECT_EQ(tlb.flowTable().longCount(), 24);
  EXPECT_EQ(tlb.flowTable().shortCount(), 100);

  tlb.controlTick();
  EXPECT_GT(tlb.qthBytes(), 0_B);
}

TEST(Tlb, AttachedTimerPurgesIdleFlows) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "leaf");
  auto cfg = config();
  cfg.updateInterval = microseconds(500);
  cfg.idleTimeout = microseconds(1000);
  Tlb tlb(cfg, 3, 1);
  tlb.attach(sw, simr);

  tlb.selectUplink(packet(1, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  EXPECT_EQ(tlb.flowTable().size(), 1u);
  simr.run(milliseconds(5));  // several update intervals, flow stays idle
  EXPECT_EQ(tlb.flowTable().size(), 0u);
}

TEST(Tlb, AckOnlyReverseFlowStaysShort) {
  Tlb tlb(config(), 3, 1);
  const auto v = makeView({500_B, 100_B, 900_B});
  tlb.selectUplink(packet(4, net::PacketType::kSynAck), v);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(tlb.selectUplink(packet(4, net::PacketType::kAck), v), 1);
  }
  EXPECT_EQ(tlb.flowTable().shortCount(), 1);
  EXPECT_EQ(tlb.flowTable().longCount(), 0);
}

TEST(Tlb, LongFlowRelocatesWhenPortVanishes) {
  Tlb tlb(config(/*qthOverride=*/50000_B), 3, 1);
  tlb.selectUplink(packet(1, net::PacketType::kSyn), makeView({0_B, 0_B, 0_B}));
  for (int i = 0; i < 80; ++i) {
    tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B),
                     makeView({0_B, 0_B, 0_B}));
  }
  // Present a view whose ports don't include the flow's current one.
  net::UplinkView v;
  v.push_back(net::PortView{7, 0_B});
  v.push_back(net::PortView{8, 100_B});
  const int p = tlb.selectUplink(packet(1, net::PacketType::kData, 1460_B), v);
  EXPECT_EQ(p, 7);  // shortest of the new group
}

}  // namespace
}  // namespace tlbsim::core
