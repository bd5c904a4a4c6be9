#include <gtest/gtest.h>

#include <set>

#include "lb/conga.hpp"
#include "lb/wcmp.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::lb {
namespace {

net::UplinkView makeView(std::vector<ByteCount> queueBytes,
                         std::vector<double> ratesBps = {}) {
  net::UplinkView v;
  for (std::size_t i = 0; i < queueBytes.size(); ++i) {
    const double rate = i < ratesBps.size() ? ratesBps[i] : 1e9;
    v.push_back(net::PortView{static_cast<int>(i), queueBytes[i], rate, 0.0});
  }
  return v;
}

net::Packet dataPacket(FlowId flow) {
  net::Packet p;
  p.flow = flow;
  p.type = net::PacketType::kData;
  p.payload = 1460_B;
  p.size = 1500_B;
  return p;
}

// --------------------------------------------------------------- CONGA --

TEST(Conga, FlowletSticksWithoutGap) {
  Conga conga(1);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = conga.selectUplink(dataPacket(1), v);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(conga.selectUplink(dataPacket(1), v), first);
  }
  EXPECT_EQ(conga.flowletsStarted(), 1u);
}

TEST(Conga, NewFlowletAvoidsLoadedUplink) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "sw");
  Conga conga(2);
  conga.attach(sw, simr);

  // Saturate port 0's DRE with another flow's traffic.
  const auto empty = makeView({0_B, 0_B, 0_B});
  for (int i = 0; i < 200; ++i) {
    // Flow 9 keeps hitting whatever port CONGA gives it; force its state
    // toward port 0 by presenting port 0 as least congested initially.
    conga.selectUplink(dataPacket(9), empty);
  }
  const int hot = conga.selectUplink(dataPacket(9), empty);
  // A brand-new flowlet must avoid the DRE-hot port.
  const int fresh = conga.selectUplink(dataPacket(10), empty);
  EXPECT_NE(fresh, hot);
}

TEST(Conga, DreAgesOut) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "sw");
  Conga conga(3);
  conga.attach(sw, simr);
  const auto v = makeView({0_B, 0_B});
  const int port = conga.selectUplink(dataPacket(1), v);
  EXPECT_GT(conga.dreOf(port), 0.0);
  simr.run(milliseconds(20));  // many aging intervals
  EXPECT_LT(conga.dreOf(port), 1.0);
}

TEST(Conga, GapStartsNewFlowletOnLeastCongested) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "sw");
  Conga conga(4, microseconds(100));
  conga.attach(sw, simr);

  conga.selectUplink(dataPacket(1), makeView({0_B, 0_B, 0_B}));
  simr.run(milliseconds(50));  // flowlet gap + DRE fully aged
  // Port 1 is clearly least congested by queue now.
  const int next =
      conga.selectUplink(dataPacket(1), makeView({50000_B, 0_B, 50000_B}));
  EXPECT_EQ(next, 1);
  EXPECT_EQ(conga.flowletsStarted(), 2u);
}

// ---------------------------------------------------------------- WCMP --

TEST(Wcmp, DeterministicPerFlow) {
  Wcmp wcmp(7);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  const int first = wcmp.selectUplink(dataPacket(3), v);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(wcmp.selectUplink(dataPacket(3), v), first);
  }
}

TEST(Wcmp, EqualRatesSpreadLikeEcmp) {
  Wcmp wcmp(8);
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  std::set<int> ports;
  for (FlowId f = 1; f <= 200; ++f) {
    ports.insert(wcmp.selectUplink(dataPacket(f), v));
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(Wcmp, WeightsFollowCapacity) {
  Wcmp wcmp(9);
  // Port 0 at 9 Gbps, port 1 at 1 Gbps: ~90 % of flows should hash to 0.
  const auto v = makeView({0_B, 0_B}, {9e9, 1e9});
  int onFast = 0;
  const int flows = 4000;
  for (FlowId f = 1; f <= flows; ++f) {
    if (wcmp.selectUplink(dataPacket(f), v) == 0) ++onFast;
  }
  EXPECT_NEAR(static_cast<double>(onFast) / flows, 0.9, 0.03);
}

TEST(Wcmp, ZeroRateFallsBackToUniform) {
  Wcmp wcmp(10);
  const auto v = makeView({0_B, 0_B, 0_B}, {0.0, 0.0, 0.0});
  std::set<int> ports;
  for (FlowId f = 1; f <= 100; ++f) {
    ports.insert(wcmp.selectUplink(dataPacket(f), v));
  }
  EXPECT_EQ(ports.size(), 3u);
}

}  // namespace
}  // namespace tlbsim::lb
