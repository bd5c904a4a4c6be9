// Output-queued switch with destination-based routing and an equal-cost
// uplink group handled by a pluggable UplinkSelector.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_store.hpp"
#include "net/uplink_selector.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::net {

class Switch : public Node {
 public:
  /// `store` is the store its ports' links keep their packets in: the
  /// switch forwards a packet's slot from one link to the next, and
  /// reports a packet with no route lost to it.
  Switch(sim::Simulator& simr, PacketStore& store, std::string name)
      : sim_(simr), store_(store), name_(std::move(name)) {}

  // The uplinks point into the switch (its view entries and stale mark).
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Take ownership of an outgoing link; returns its port index.
  int addPort(std::unique_ptr<Link> link) {
    ports_.push_back(std::move(link));
    return static_cast<int>(ports_.size()) - 1;
  }

  /// Route packets for `dstHost` out of a specific port.
  void setRoute(HostId dstHost, int port);

  /// Route packets for `dstHost` through the uplink group (selector picks).
  void routeViaUplinks(HostId dstHost);

  /// Declare which ports form the equal-cost uplink group.
  void setUplinkGroup(std::vector<int> ports);
  const std::vector<int>& uplinkGroup() const { return uplinks_; }

  /// Install the load-balancing scheme (calls selector->attach()).
  void setSelector(std::unique_ptr<UplinkSelector> selector);
  UplinkSelector* selector() const { return selector_.get(); }

  void receive(PacketStore& store, PacketStore::Handle slot,
               int inPort) override;

  std::string name() const override { return name_; }

  int numPorts() const { return static_cast<int>(ports_.size()); }
  Link& port(int i) { return *ports_[i]; }
  const Link& port(int i) const { return *ports_[i]; }

  sim::Simulator& simulator() { return sim_; }

  /// The kept view of the uplink group: one entry per up port, in group
  /// order (downed ports masked out). Each entry's link keeps its queue
  /// bytes and wait current as packets enter and leave, so a decision
  /// reads stored state. A fault that changes which ports are up, or a
  /// port's rate or delay, marks the view stale, and the next call
  /// rebuilds it (in place: no allocation once warm). receive() hands
  /// this view to selectUplink; it changes as queues do, so read it
  /// during a call and do not keep it.
  const UplinkView& uplinkView() {
    if (viewStale_) rebuildView();
    return view_;
  }

  /// The view as kept, without the rebuild a stale mark asks for (the
  /// auditor compares it with the links).
  const UplinkView& keptView() const { return view_; }
  bool viewStale() const { return viewStale_; }

  /// The entry a view built from scratch holds for uplink port `p`.
  PortView freshView(int p) const;

  std::uint64_t forwardedPackets() const { return forwarded_; }
  std::uint64_t unroutablePackets() const { return unroutable_; }

  /// Add the counts so far to "switch.<name>.forwarded" / ".unroutable".
  void addCountersTo(obs::MetricsRegistry& metrics) const;

  /// Wire the per-flow decision probe: every packet this switch forwards
  /// onto an uplink-group port is reported as (leafIndex, slot) where slot
  /// is the port's index within the uplink group. Call after
  /// setUplinkGroup(); one null-pointer branch per packet when not
  /// installed.
  void installFlowProbe(obs::FlowProbe& probe, int leafIndex);

 private:
  static constexpr int kNoRoute = -1;
  static constexpr int kViaUplinks = -2;

  /// Re-derive the view from the links and point each at its entry.
  void rebuildView();

  int routeFor(HostId dst) const {
    if (dst < 0 || static_cast<std::size_t>(dst) >= routes_.size())
      return kNoRoute;
    return routes_[static_cast<std::size_t>(dst)];
  }

  sim::Simulator& sim_;
  PacketStore& store_;
  std::string name_;
  std::vector<std::unique_ptr<Link>> ports_;
  std::vector<int> routes_;  // dst host -> port | kViaUplinks | kNoRoute
  std::vector<int> uplinks_;
  UplinkView view_;  ///< kept current by the uplinks' links
  /// Set by a fault on an uplink (and a new group): rebuild view_ before
  /// it is next read.
  bool viewStale_ = true;
  std::unique_ptr<UplinkSelector> selector_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
  obs::FlowProbe* flowProbe_ = nullptr;
  int probeLeafIndex_ = -1;
  std::vector<int> portToUplinkSlot_;  ///< port -> group slot, -1 otherwise
};

}  // namespace tlbsim::net
