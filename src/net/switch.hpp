// Output-queued switch with destination-based routing and an equal-cost
// uplink group handled by a pluggable UplinkSelector.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/uplink_selector.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::net {

class Switch : public Node {
 public:
  Switch(sim::Simulator& simr, std::string name)
      : sim_(simr), name_(std::move(name)) {}

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
  void setUplinkGroup(std::vector<int> ports) { uplinks_ = std::move(ports); }
  const std::vector<int>& uplinkGroup() const { return uplinks_; }

  /// Install the load-balancing scheme (calls selector->attach()).
  void setSelector(std::unique_ptr<UplinkSelector> selector);
  UplinkSelector* selector() const { return selector_.get(); }

  void receive(const Packet& pkt, int inPort) override;

  std::string name() const override { return name_; }

  int numPorts() const { return static_cast<int>(ports_.size()); }
  Link& port(int i) { return *ports_[i]; }
  const Link& port(int i) const { return *ports_[i]; }

  sim::Simulator& simulator() { return sim_; }

  /// Refresh the switch-owned queue views of the current uplink group
  /// (downed ports masked out) and return them. The buffer is reused, so
  /// this makes no allocation once warm; the reference stays valid until
  /// this switch's next uplinkView() call. receive() hands this buffer to
  /// selectUplink, so a selector must not call it from inside a decision.
  const UplinkView& uplinkView();

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

  int routeFor(HostId dst) const {
    if (dst < 0 || static_cast<std::size_t>(dst) >= routes_.size())
      return kNoRoute;
    return routes_[static_cast<std::size_t>(dst)];
  }

  sim::Simulator& sim_;
  std::string name_;
  std::vector<std::unique_ptr<Link>> ports_;
  std::vector<int> routes_;  // dst host -> port | kViaUplinks | kNoRoute
  std::vector<int> uplinks_;
  UplinkView view_;  ///< refreshed in place by uplinkView()
  std::unique_ptr<UplinkSelector> selector_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
  obs::FlowProbe* flowProbe_ = nullptr;
  int probeLeafIndex_ = -1;
  std::vector<int> portToUplinkSlot_;  ///< port -> group slot, -1 otherwise
};

}  // namespace tlbsim::net
