// The load-balancing extension point of a switch.
//
// A switch that reaches some destinations through a *group* of equal-cost
// uplinks consults its UplinkSelector once per packet to pick the uplink.
// Every scheme in the paper (ECMP, RPS, Presto, LetFlow, DRILL, TLB) is an
// implementation of this interface; schemes keep whatever per-flow state
// they need internally, exactly like switch-resident logic would.
#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace tlbsim {
namespace obs {
class FlowProbe;
}
namespace lb {
class FlowStateTableBase;
}

namespace net {

class Switch;

/// Snapshot of one uplink's queue, as visible to switch-local logic.
/// Rate and propagation delay are static properties of the switch's own
/// cables (known from configuration/LLDP in real gear); queue state is
/// dynamic.
struct PortView {
  int port = -1;
  ByteCount queueBytes;
  double rateBps = 0.0;      ///< link speed (weighting by capacity)
  double linkDelaySec = 0.0; ///< one-way propagation of this cable
};

/// The candidate uplinks for a routing decision. The switch refreshes one
/// buffer it owns before every decision (Switch::uplinkView), so schemes
/// always see current queue state without a per-packet allocation.
using UplinkView = std::vector<PortView>;

class UplinkSelector {
 public:
  virtual ~UplinkSelector() = default;

  /// Pick the uplink for `pkt`. Returns a port number, one of
  /// `uplinks[i].port`, not an index into `uplinks`. `uplinks` is the
  /// switch's view buffer: read it during the call, do not keep it.
  virtual int selectUplink(const Packet& pkt, const UplinkView& uplinks) = 0;

  /// Called once when installed into a switch; keeps the switch and its
  /// clock. Schemes with control loops (e.g. TLB's periodic granularity
  /// update) override it, call this first, then register their timers.
  virtual void attach(Switch& sw, sim::Simulator& simr) {
    switch_ = &sw;
    sim_ = &simr;
  }

  virtual const char* name() const = 0;

  /// Install the per-flow decision probe (nullable hot-path contract:
  /// stays nullptr unless observability is on). Schemes report their
  /// path-change decisions — new flowlets, reroutes, granularity switches
  /// — through it.
  void setFlowProbe(obs::FlowProbe* probe) { flowProbe_ = probe; }

  /// The scheme's bounded per-flow state table, when it keeps one.
  /// The harness wires the table's tracked/purged/evicted/probe-distance
  /// metrics through this; stateless schemes return nullptr.
  virtual lb::FlowStateTableBase* flowState() { return nullptr; }

 protected:
  /// The switch's clock; time zero before attach (unit tests drive
  /// selectors without a switch).
  SimTime now() const { return sim_ != nullptr ? sim_->now() : SimTime{}; }

  Switch* switch_ = nullptr;  ///< set by attach
  obs::FlowProbe* flowProbe_ = nullptr;

 private:
  sim::Simulator* sim_ = nullptr;
};

}  // namespace net
}  // namespace tlbsim
