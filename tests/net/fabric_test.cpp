// net::Fabric, the shape-independent view both topology builders share.
#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::net {
namespace {

LeafSpineConfig smallLeafSpine() {
  LeafSpineConfig cfg;
  cfg.numLeaves = 2;
  cfg.numSpines = 4;
  cfg.hostsPerLeaf = 3;
  cfg.linkDelay = microseconds(10);
  cfg.bufferPackets = 64;
  return cfg;
}

FatTreeConfig k4() {
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.linkDelay = microseconds(10);
  return cfg;
}

/// Builds ECMP selectors and records which switch got which index.
struct RecordingFactory {
  std::vector<const Switch*> order;
  SelectorFactory factory() {
    return [this](Switch& sw, int index) {
      EXPECT_EQ(index, static_cast<int>(order.size()));
      order.push_back(&sw);
      return std::make_unique<lb::Ecmp>(static_cast<std::uint64_t>(index));
    };
  }
};

std::string labelOf(const Fabric& fabric, const Link& link) {
  std::string label;
  fabric.forEachLink([&](const FabricLink& l) {
    if (l.link == &link) label = l.label();
  });
  return label;
}

TEST(Fabric, EveryLinkJoinsAdjacentTiers) {
  sim::Simulator simr;
  FatTreeTopology topo(simr, k4(), nullptr);
  // [from tier][to tier] -> links; each of the six classes holds one
  // link per host (16).
  int count[4][4] = {};
  int links = 0;
  topo.forEachLink([&](const FabricLink& l) {
    ASSERT_EQ(std::abs(l.fromTier - l.toTier), 1) << l.label();
    ++count[l.fromTier][l.toTier];
    ++links;
  });
  EXPECT_EQ(links, 6 * 16);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(count[t][t + 1], 16) << "up from tier " << t;
    EXPECT_EQ(count[t + 1][t], 16) << "down to tier " << t;
  }
  int fabricLinks = 0;
  topo.forEachFabricLink([&](Link&) { ++fabricLinks; });
  EXPECT_EQ(fabricLinks, 4 * 16);
}

TEST(Fabric, GroupsHostsByAccessSwitch) {
  sim::Simulator simr;
  LeafSpineTopology ls(simr, smallLeafSpine(), nullptr);
  ASSERT_EQ(ls.accessSwitches().size(), 2u);
  for (int h = 0; h < ls.numHosts(); ++h) {
    EXPECT_EQ(ls.accessOf(h), ls.leafOf(h)) << "host " << h;
  }
  EXPECT_EQ(ls.hostsUnder(1).first, 3);
  EXPECT_EQ(ls.hostsUnder(1).count, 3);

  FatTreeTopology ft(simr, k4(), nullptr);
  ASSERT_EQ(ft.accessSwitches().size(), 8u);
  for (int h = 0; h < ft.numHosts(); ++h) {
    EXPECT_EQ(ft.accessSwitches()[static_cast<std::size_t>(ft.accessOf(h))],
              &ft.edge(ft.podOf(h), ft.edgeOf(h)))
        << "host " << h;
  }
  EXPECT_EQ(ft.hostsUnder(5).first, 10);
  EXPECT_EQ(ft.hostsUnder(5).count, 2);
}

TEST(Fabric, LabelsLinksByTheirNodeNames) {
  sim::Simulator simr;
  LeafSpineTopology ls(simr, smallLeafSpine(), nullptr);
  EXPECT_EQ(labelOf(ls, ls.leafUplink(0, 1)), "leaf0->spine1");
  EXPECT_EQ(labelOf(ls, ls.spineDownlink(2, 1)), "spine2->leaf1");
  EXPECT_EQ(labelOf(ls, ls.host(3).uplink()), "h3->leaf1");
  EXPECT_EQ(labelOf(ls, ls.leafDownlink(3)), "leaf1->h3");
  EXPECT_EQ(linkLabel(ls.leaf(1), ls.leafUplink(1, 3)), "leaf1->spine3");

  FatTreeTopology ft(simr, k4(), nullptr);
  Switch& edge = ft.edge(0, 0);
  EXPECT_EQ(labelOf(ft, edge.port(edge.uplinkGroup()[1])), "edge0.0->agg0.1");
  Switch& agg = ft.agg(1, 1);
  EXPECT_EQ(labelOf(ft, agg.port(agg.uplinkGroup()[0])), "agg1.1->core2");
}

TEST(Fabric, AccessAndDecisionSwitchesComeInSelectorFactoryOrder) {
  sim::Simulator simr;
  RecordingFactory lsOrder;
  LeafSpineTopology ls(simr, smallLeafSpine(), lsOrder.factory());
  ASSERT_EQ(lsOrder.order.size(), 2u);
  EXPECT_TRUE(std::equal(lsOrder.order.begin(), lsOrder.order.end(),
                         ls.decisionSwitches().begin(),
                         ls.decisionSwitches().end()));
  EXPECT_TRUE(std::equal(ls.accessSwitches().begin(),
                         ls.accessSwitches().end(),
                         ls.decisionSwitches().begin()));
  EXPECT_EQ(ls.switches().size(), 2u + 4u);

  RecordingFactory ftOrder;
  FatTreeTopology ft(simr, k4(), ftOrder.factory());
  // Edges first, then aggregation switches, each pod-major.
  ASSERT_EQ(ftOrder.order.size(), 16u);
  EXPECT_TRUE(std::equal(ftOrder.order.begin(), ftOrder.order.end(),
                         ft.decisionSwitches().begin(),
                         ft.decisionSwitches().end()));
  EXPECT_TRUE(std::equal(ft.accessSwitches().begin(),
                         ft.accessSwitches().end(),
                         ft.decisionSwitches().begin()));
  EXPECT_EQ(ftOrder.order[1], &ft.edge(0, 1));
  EXPECT_EQ(ftOrder.order[8], &ft.agg(0, 0));
  EXPECT_EQ(ftOrder.order[15], &ft.agg(3, 1));
  EXPECT_EQ(ft.switches().size(), 8u + 8u + 4u);
}

}  // namespace
}  // namespace tlbsim::net
