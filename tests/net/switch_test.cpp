#include "net/switch.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace tlbsim::net {
namespace {

class SinkNode : public Node {
 public:
  void receive(PacketStore& store, PacketStore::Handle slot, int) override {
    packets.push_back(store[slot].pkt);
    store.free(slot);
  }
  std::string name() const override { return "sink"; }
  std::vector<Packet> packets;
};

/// Always picks a fixed port; records what it saw.
class FixedSelector : public UplinkSelector {
 public:
  explicit FixedSelector(int port) : port_(port) {}
  int selectUplink(const Packet& pkt, const UplinkView& uplinks) override {
    lastPacket = pkt;
    lastView = uplinks;
    ++calls;
    return port_;
  }
  const char* name() const override { return "fixed"; }

  int calls = 0;
  Packet lastPacket;
  UplinkView lastView;

 private:
  int port_;
};

struct Rig {
  sim::Simulator simr;
  PacketStore store;
  SinkNode sinkA, sinkB, sinkC;
  std::unique_ptr<Switch> sw;

  Rig() {
    sw = std::make_unique<Switch>(simr, store, "test-switch");
    for (SinkNode* sink : {&sinkA, &sinkB, &sinkC}) {
      auto link = std::make_unique<Link>(simr, store, gbps(1), microseconds(1),
                                         QueueConfig{16, 0});
      link->connect(sink, 0);
      sw->addPort(std::move(link));
    }
  }

  Packet packetFor(HostId dst) {
    Packet p;
    p.flow = 7;
    p.dst = dst;
    p.size = 100_B;
    return p;
  }

  /// Hands the switch a packet for `dst` in a slot of its store, as a link
  /// delivers one.
  void deliver(HostId dst) {
    sw->receive(store, store.alloc(packetFor(dst)), 0);
  }
};

TEST(Switch, DirectRouteDelivers) {
  Rig rig;
  rig.sw->setRoute(5, 1);
  rig.deliver(5);
  rig.simr.run();
  EXPECT_EQ(rig.sinkB.packets.size(), 1u);
  EXPECT_TRUE(rig.sinkA.packets.empty());
  EXPECT_EQ(rig.sw->forwardedPackets(), 1u);
}

TEST(Switch, UnroutableIsCountedNotCrashed) {
  Rig rig;
  rig.deliver(99);
  rig.simr.run();
  EXPECT_EQ(rig.sw->unroutablePackets(), 1u);
  EXPECT_EQ(rig.sw->forwardedPackets(), 0u);
  EXPECT_EQ(rig.store.live(), 0u);  // the switch freed what it dropped
}

TEST(Switch, UplinkGroupConsultsSelector) {
  Rig rig;
  rig.sw->setUplinkGroup({1, 2});
  rig.sw->routeViaUplinks(9);
  auto selector = std::make_unique<FixedSelector>(2);
  auto* sel = selector.get();
  rig.sw->setSelector(std::move(selector));
  rig.deliver(9);
  rig.simr.run();
  EXPECT_EQ(sel->calls, 1);
  EXPECT_EQ(rig.sinkC.packets.size(), 1u);
  ASSERT_EQ(sel->lastView.size(), 2u);
  EXPECT_EQ(sel->lastView[0].port, 1);
  EXPECT_EQ(sel->lastView[1].port, 2);
}

TEST(Switch, SingleUplinkSkipsSelector) {
  Rig rig;
  rig.sw->setUplinkGroup({2});
  rig.sw->routeViaUplinks(9);
  auto selector = std::make_unique<FixedSelector>(0);
  auto* sel = selector.get();
  rig.sw->setSelector(std::move(selector));
  rig.deliver(9);
  rig.simr.run();
  EXPECT_EQ(sel->calls, 0);  // no decision needed
  EXPECT_EQ(rig.sinkC.packets.size(), 1u);
}

TEST(Switch, UplinkViewReflectsQueueState) {
  Rig rig;
  rig.sw->setUplinkGroup({0, 1});
  // Stuff port 0's queue: first packet goes to the wire, rest queue up.
  for (int i = 0; i < 3; ++i) {
    rig.sw->port(0).send(rig.packetFor(1));
  }
  const auto view = rig.sw->uplinkView();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0].queueBytes, 200_B);
  EXPECT_EQ(view[1].queueBytes, 0_B);
}

TEST(Switch, RouteCanBeOverwritten) {
  Rig rig;
  rig.sw->setRoute(5, 0);
  rig.sw->setRoute(5, 2);
  rig.deliver(5);
  rig.simr.run();
  EXPECT_TRUE(rig.sinkA.packets.empty());
  EXPECT_EQ(rig.sinkC.packets.size(), 1u);
}

}  // namespace
}  // namespace tlbsim::net
