#include "net/leaf_spine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "lb/ecmp.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::net {
namespace {

LeafSpineConfig smallConfig() {
  LeafSpineConfig cfg;
  cfg.numLeaves = 2;
  cfg.numSpines = 4;
  cfg.hostsPerLeaf = 3;
  cfg.linkDelay = microseconds(10);
  cfg.bufferPackets = 64;
  cfg.ecnThresholdPackets = 0;
  return cfg;
}

SelectorFactory ecmpFactory() {
  return [](Switch&, int leafIdx) {
    return std::make_unique<lb::Ecmp>(static_cast<std::uint64_t>(leafIdx));
  };
}

/// Captures packets at a destination host by binding a handler.
class CaptureHandler : public PacketHandler {
 public:
  void onPacket(const Packet& pkt) override { packets.push_back(pkt); }
  std::vector<Packet> packets;
};

TEST(LeafSpine, TopologyDimensions) {
  sim::Simulator simr;
  LeafSpineTopology topo(simr, smallConfig(), ecmpFactory());
  EXPECT_EQ(topo.numHosts(), 6);
  EXPECT_EQ(topo.numLeaves(), 2);
  EXPECT_EQ(topo.numSpines(), 4);
  // Each leaf: 3 host downlinks + 4 spine uplinks.
  EXPECT_EQ(topo.leaf(0).numPorts(), 7);
  // Each spine: one downlink per leaf.
  EXPECT_EQ(topo.spine(0).numPorts(), 2);
  EXPECT_EQ(topo.leaf(0).uplinkGroup().size(), 4u);
}

TEST(LeafSpine, LeafOfMapsHostsCorrectly) {
  sim::Simulator simr;
  LeafSpineTopology topo(simr, smallConfig(), ecmpFactory());
  EXPECT_EQ(topo.leafOf(0), 0);
  EXPECT_EQ(topo.leafOf(2), 0);
  EXPECT_EQ(topo.leafOf(3), 1);
  EXPECT_EQ(topo.leafOf(5), 1);
}

TEST(LeafSpine, CrossLeafDelivery) {
  sim::Simulator simr;
  LeafSpineTopology topo(simr, smallConfig(), ecmpFactory());
  CaptureHandler capture;
  topo.host(4).bind(11, &capture);

  Packet p;
  p.flow = 11;
  p.src = 0;
  p.dst = 4;
  p.size = 1500_B;
  topo.host(0).send(p);
  simr.run();

  ASSERT_EQ(capture.packets.size(), 1u);
  EXPECT_EQ(capture.packets[0].flow, 11u);
  // Path: host->leaf->spine->leaf->host = 4 links of 10 us propagation
  // plus 4 serializations of 12 us (1500B @ 1 Gbps) = 88 us.
  EXPECT_EQ(simr.now(), microseconds(88));
}

TEST(LeafSpine, APacketKeepsOneStoreSlotFromNicToHost) {
  // host 0 -> leaf0 -> spine -> leaf1 -> host 1, a 20-packet burst
  // spread along the path: each link's dequeue hook sees a packet in the
  // slot it took at host 0's NIC, and the store holds exactly the slots
  // the links account for, in the middle of a hop too.
  sim::Simulator simr;
  LeafSpineConfig cfg = smallConfig();
  cfg.numSpines = 2;
  cfg.hostsPerLeaf = 1;
  LeafSpineTopology topo(simr, cfg, ecmpFactory());
  const PacketStore& store = topo.packetStore();
  std::vector<const Link*> links;
  topo.forEachLink([&](const FabricLink& l) { links.push_back(l.link); });
  std::map<std::uint64_t, std::vector<const Packet*>> slotsOf;  // by seq
  int unaccounted = 0;
  topo.forEachLink([&](const FabricLink& l) {
    l.link->addDequeueHook([&](const Packet& pkt, SimTime) {
      slotsOf[pkt.seq].push_back(&pkt);
      std::uint64_t held = 0;
      for (const Link* link : links) held += link->storeSlotsHeld();
      if (store.live() != held) ++unaccounted;
    });
  });
  CaptureHandler capture;
  topo.host(1).bind(13, &capture);
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    Packet p;
    p.flow = 13;
    p.src = 0;
    p.dst = 1;
    p.size = 1500_B;
    p.seq = seq;
    topo.host(0).send(p);
  }
  simr.run();

  ASSERT_EQ(capture.packets.size(), 20u);
  EXPECT_EQ(unaccounted, 0);
  ASSERT_EQ(slotsOf.size(), 20u);
  for (const auto& [seq, slots] : slotsOf) {
    ASSERT_EQ(slots.size(), 4u) << "packet " << seq;
    for (const Packet* at : slots) {
      EXPECT_EQ(at, slots.front()) << "packet " << seq << " changed slot";
    }
  }
  EXPECT_EQ(store.live(), 0u);
}

TEST(LeafSpine, SameLeafDeliveryAvoidsFabric) {
  sim::Simulator simr;
  LeafSpineTopology topo(simr, smallConfig(), ecmpFactory());
  CaptureHandler capture;
  topo.host(1).bind(12, &capture);

  Packet p;
  p.flow = 12;
  p.src = 0;
  p.dst = 1;
  p.size = 1500_B;
  topo.host(0).send(p);
  simr.run();

  ASSERT_EQ(capture.packets.size(), 1u);
  // host->leaf->host = 2 links: 2*10 + 2*12 = 44 us.
  EXPECT_EQ(simr.now(), microseconds(44));
  for (int s = 0; s < topo.numSpines(); ++s) {
    EXPECT_EQ(topo.leafUplink(0, s).txPackets(), 0u);
  }
}

TEST(LeafSpine, EveryHostPairIsReachable) {
  sim::Simulator simr;
  LeafSpineTopology topo(simr, smallConfig(), ecmpFactory());
  int delivered = 0;
  std::vector<std::unique_ptr<CaptureHandler>> captures;
  FlowId flow = 100;
  for (int a = 0; a < topo.numHosts(); ++a) {
    for (int b = 0; b < topo.numHosts(); ++b) {
      if (a == b) continue;
      auto cap = std::make_unique<CaptureHandler>();
      topo.host(b).bind(flow, cap.get());
      Packet p;
      p.flow = flow;
      p.src = static_cast<HostId>(a);
      p.dst = static_cast<HostId>(b);
      p.size = 100_B;
      topo.host(a).send(p);
      captures.push_back(std::move(cap));
      ++flow;
    }
  }
  simr.run();
  for (const auto& cap : captures) delivered += cap->packets.size();
  EXPECT_EQ(delivered, topo.numHosts() * (topo.numHosts() - 1));
}

TEST(LeafSpine, BaseRttIsEightLinkDelays) {
  EXPECT_EQ(smallConfig().baseRtt(), microseconds(80));
}

TEST(LeafSpine, AsymmetryOverrideScalesDelay) {
  sim::Simulator simr;
  auto cfg = smallConfig();
  cfg.overrides.push_back({.leaf = 0, .spine = 2, .rateFactor = 1.0,
                           .delayFactor = 5.0});
  LeafSpineTopology topo(simr, cfg, ecmpFactory());
  EXPECT_EQ(topo.leafUplink(0, 2).propagationDelay(), microseconds(50));
  EXPECT_EQ(topo.spineDownlink(2, 0).propagationDelay(), microseconds(50));
  // Other links unaffected.
  EXPECT_EQ(topo.leafUplink(0, 1).propagationDelay(), microseconds(10));
  EXPECT_EQ(topo.leafUplink(1, 2).propagationDelay(), microseconds(10));
}

TEST(LeafSpine, AsymmetryOverrideScalesRate) {
  sim::Simulator simr;
  auto cfg = smallConfig();
  cfg.overrides.push_back({.leaf = 1, .spine = 0, .rateFactor = 0.5,
                           .delayFactor = 1.0});
  LeafSpineTopology topo(simr, cfg, ecmpFactory());
  EXPECT_DOUBLE_EQ(topo.leafUplink(1, 0).rate().bitsPerSecond(), 0.5e9);
  EXPECT_DOUBLE_EQ(topo.spineDownlink(0, 1).rate().bitsPerSecond(), 0.5e9);
  EXPECT_DOUBLE_EQ(topo.leafUplink(0, 0).rate().bitsPerSecond(), 1e9);
}

TEST(LeafSpine, ForEachFabricLinkVisitsAll) {
  sim::Simulator simr;
  LeafSpineTopology topo(simr, smallConfig(), ecmpFactory());
  int count = 0;
  topo.forEachFabricLink([&](Link&) { ++count; });
  // 2 leaves x 4 spines x 2 directions.
  EXPECT_EQ(count, 16);
}

TEST(LeafSpine, NullSelectorFactoryStillRoutesSingleUplinkGroups) {
  sim::Simulator simr;
  auto cfg = smallConfig();
  cfg.numSpines = 1;
  LeafSpineTopology topo(simr, cfg, /*makeSelector=*/nullptr);
  CaptureHandler capture;
  topo.host(3).bind(21, &capture);
  Packet p;
  p.flow = 21;
  p.src = 0;
  p.dst = 3;
  p.size = 100_B;
  topo.host(0).send(p);
  simr.run();
  EXPECT_EQ(capture.packets.size(), 1u);
}

}  // namespace
}  // namespace tlbsim::net
