#include <gtest/gtest.h>

#include <set>

#include "lb/hermes_like.hpp"
#include "lb/round_robin.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::lb {
namespace {

net::UplinkView makeView(std::vector<ByteCount> queueBytes) {
  net::UplinkView v;
  for (std::size_t i = 0; i < queueBytes.size(); ++i) {
    v.push_back(net::PortView{static_cast<int>(i), queueBytes[i], 1e9, 0.0});
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

// ----------------------------------------------------------- RoundRobin --

TEST(RoundRobin, CyclesThroughAllPorts) {
  RoundRobin rr;
  const auto v = makeView({0_B, 0_B, 0_B});
  std::vector<int> seen;
  for (int i = 0; i < 9; ++i) seen.push_back(rr.selectUplink(dataPacket(1), v));
  for (int i = 3; i < 9; ++i) EXPECT_EQ(seen[i], seen[i - 3]);
  EXPECT_EQ(std::set<int>(seen.begin(), seen.end()).size(), 3u);
}

TEST(RoundRobin, PerfectlyBalancedByPacketCount) {
  RoundRobin rr;
  const auto v = makeView({0_B, 0_B, 0_B, 0_B});
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++counts[static_cast<std::size_t>(rr.selectUplink(dataPacket(1), v))];
  }
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(RoundRobin, ObliviousToQueueState) {
  RoundRobin rr;
  const int p1 = rr.selectUplink(dataPacket(1), makeView({900000_B, 0_B}));
  const int p2 = rr.selectUplink(dataPacket(1), makeView({900000_B, 0_B}));
  EXPECT_NE(p1, p2);  // alternates regardless of queue depths
}

// ----------------------------------------------------------- HermesLike --

TEST(HermesLike, FlowSticksBelowRerouteThreshold) {
  HermesLike h(1);
  const auto v = makeView({0_B, 0_B, 0_B});
  const int first = h.selectUplink(dataPacket(1), v);
  // Even on a now-terrible path, no reroute before 100 KB have been sent.
  std::vector<ByteCount> q = {0_B, 0_B, 0_B};
  q[static_cast<std::size_t>(first)] = 500000_B;
  for (int i = 0; i < 30; ++i) {  // 30 * 1460 B << 100 KB
    EXPECT_EQ(h.selectUplink(dataPacket(1), makeView(q)), first);
  }
  EXPECT_EQ(h.reroutes(), 0u);
}

TEST(HermesLike, ReroutesWhenEligibleAndCurrentPathBad) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "sw");
  HermesLike h(2);
  h.attach(sw, simr);
  const auto clean = makeView({0_B, 0_B, 0_B});
  const int first = h.selectUplink(dataPacket(1), clean);
  // Send past the threshold on a path that then turns bad.
  std::vector<ByteCount> q = {0_B, 0_B, 0_B};
  q[static_cast<std::size_t>(first)] = 500000_B;  // ~4 ms wait: "bad"
  int port = first;
  for (int i = 0; i < 90; ++i) {  // > 100 KB
    port = h.selectUplink(dataPacket(1), makeView(q));
  }
  EXPECT_NE(port, first);
  EXPECT_GE(h.reroutes(), 1u);
}

TEST(HermesLike, NoRerouteWhenCurrentPathGood) {
  HermesLike h(3);
  const auto v = makeView({0_B, 0_B, 0_B});
  const int first = h.selectUplink(dataPacket(1), v);
  for (int i = 0; i < 200; ++i) {  // far past the byte threshold
    EXPECT_EQ(h.selectUplink(dataPacket(1), v), first);
  }
  EXPECT_EQ(h.reroutes(), 0u);
}

TEST(HermesLike, CautionPreventsGrayToGrayMoves) {
  // All paths equally mediocre ("gray"): moving buys nothing; stay.
  HermesLike h(4);
  const auto v = makeView({30000_B, 30000_B, 30000_B});  // ~240 us: gray
  const int first = h.selectUplink(dataPacket(1), v);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(h.selectUplink(dataPacket(1), v), first);
  }
  EXPECT_EQ(h.reroutes(), 0u);
}

}  // namespace
}  // namespace tlbsim::lb
