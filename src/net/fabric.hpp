// Fabric: the hosts, switches and links of a multi-rooted tree, and the
// questions every consumer asks of a topology without knowing its shape.
//
// Nodes sit in tiers. Tier 0 holds the hosts; tier 1 the access switches,
// each host's first hop and the first tier that load-balances; every tier
// above is one more hop from the hosts. A decision switch is one with an
// equal-cost uplink group and a selector: the leaves of a leaf-spine, the
// edge and aggregation switches of a fat-tree.
//
// LeafSpineTopology and FatTreeTopology derive from Fabric. They wire it
// through the protected add/connect calls and keep only their own index
// accessors, so the harness, the auditor, the endpoint pool and the app
// layer run on either. Building a Fabric records nothing per link beyond
// the link itself: forEachLink() derives each link's ends and tiers from
// the switches' ports and uplink groups, and builds a label only when obs
// or the auditor asks for one.
//
// A Fabric owns one PacketStore, and every link it builds keeps its
// queued and in-flight packets there.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/packet_store.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

/// Builds one UplinkSelector per decision switch. `index` counts the
/// decision switches in the order the builder declared them (leaves on a
/// leaf-spine; edges, then aggregation switches on a fat-tree), so
/// schemes can derive per-switch salts and seeds.
// Called once per switch at topology construction (cold path).
// tlbsim-lint: allow(std-function-hot-path)
using SelectorFactory =
    // tlbsim-lint: allow(std-function-hot-path)
    std::function<std::unique_ptr<UplinkSelector>(Switch& sw, int index)>;

/// A link's label, "<from>-><to>" from its two node names, e.g.
/// "leaf0->spine1" or "h3->leaf0".
std::string linkLabel(const Node& from, const Link& link);

/// One directed link of the fabric, as forEachLink() reports it.
struct FabricLink {
  Link* link;
  const Node* from;  ///< the node the link leaves; link->peer() is the other
  int fromTier;
  int toTier;

  std::string label() const { return linkLabel(*from, *link); }
};

class Fabric {
 public:
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int numHosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  const Host& host(int i) const { return *hosts_[static_cast<std::size_t>(i)]; }

  /// Every switch, in the order the builder added them.
  const std::vector<std::unique_ptr<Switch>>& switches() const {
    return switches_;
  }
  /// The access switches, in selector-factory order.
  const std::vector<Switch*>& accessSwitches() const { return access_; }
  /// Every switch with an uplink group, in selector-factory order.
  const std::vector<Switch*>& decisionSwitches() const { return decision_; }

  /// Index into accessSwitches() of host `h`'s access switch.
  int accessOf(HostId h) const {
    return accessOf_[static_cast<std::size_t>(h)];
  }
  /// The hosts under access switch `a`: ids first .. first + count - 1.
  struct HostRange {
    HostId first;
    int count;
  };
  HostRange hostsUnder(int a) const {
    return hostsUnder_[static_cast<std::size_t>(a)];
  }

  /// Visit every link, host access links included: each host's uplink,
  /// then each switch's ports in switch order. A port in a switch's
  /// uplink group leads one tier up, any other port one tier down.
  /// Setup-time iteration (cold path).
  // tlbsim-lint: allow(std-function-hot-path)
  void forEachLink(const std::function<void(const FabricLink&)>& fn) const;

  /// Visit every switch-to-switch link (both directions); used to install
  /// stats hooks and sum link counters (cold path).
  // tlbsim-lint: allow(std-function-hot-path)
  void forEachFabricLink(const std::function<void(Link&)>& fn) const;

  /// The store every link of this fabric keeps its packets in.
  PacketStore& packetStore() { return store_; }
  const PacketStore& packetStore() const { return store_; }

  /// Hand a lost packet to the handler its flow has at the packet's
  /// source host: the endpoint that sent it. The store calls this for
  /// every loss in the fabric.
  void reportLoss(const Packet& pkt);

 protected:
  explicit Fabric(sim::Simulator& simr)
      : sim_(simr), store_([this](const Packet& pkt) { reportLoss(pkt); }) {}
  ~Fabric() = default;

  /// Size the per-host and per-switch bookkeeping up front.
  void reserve(int hosts, int switches);

  /// Add a switch at `tier` (1 = access).
  Switch& addSwitch(std::string name, int tier);

  /// Add the next host (id = numHosts()) under access switch `access`
  /// (an index into accessSwitches()), with its uplink and the access
  /// switch's downlink to it, and route the host's id to that downlink.
  /// The hosts under one access switch must have consecutive ids.
  Host& addHost(int access, LinkRate rate, SimTime delay, QueueConfig q);

  /// The two ports of a cable: the uplink's on the lower switch and the
  /// downlink's on the upper one.
  struct CablePorts {
    int up;
    int down;
  };
  /// Cable `lower` to `upper`, one tier above it, in both directions,
  /// uplink first.
  CablePorts connect(Switch& lower, Switch& upper, LinkRate rate,
                     SimTime delay, QueueConfig q);

  /// Declare `ports` the uplink group of `sw`; `sw` becomes the next
  /// decision switch.
  void setUplinks(Switch& sw, std::vector<int> ports);

  /// Give every decision switch its selector, in declaration order.
  void installSelectors(const SelectorFactory& makeSelector);

 private:
  sim::Simulator& sim_;
  /// Declared before the nodes, so it outlives every link.
  PacketStore store_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<int> tierOf_;  ///< per switch
  std::vector<Switch*> access_;
  std::vector<Switch*> decision_;
  std::vector<int> accessOf_;          ///< per host
  std::vector<HostRange> hostsUnder_;  ///< per access switch
};

}  // namespace tlbsim::net
