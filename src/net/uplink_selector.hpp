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

/// One uplink's queue and expected wait, as visible to switch-local logic.
/// Rate and propagation delay are properties of the switch's own cables
/// (known from configuration/LLDP in real gear) that only a fault
/// changes; the queue depth, and the wait it implies, change with every
/// packet. A switch's entries are kept by their links (Switch::uplinkView);
/// a view built by hand computes its wait when constructed.
struct PortView {
  PortView() = default;
  PortView(int port, ByteCount queueBytes, double rateBps = 0.0,
           double linkDelaySec = 0.0)
      : port(port), rateBps(rateBps), linkDelaySec(linkDelaySec) {
    setQueueBytes(queueBytes);
  }

  /// Record a new queue depth and recompute the wait from it.
  void setQueueBytes(ByteCount bytes) {
    queueBytes = bytes;
    wait = rateBps > 0.0
               ? static_cast<double>((bytes + 1500_B).bytes()) * 8.0 /
                         rateBps +
                     linkDelaySec
               : static_cast<double>(bytes.bytes());
  }

  int port = -1;
  ByteCount queueBytes;
  double rateBps = 0.0;      ///< link speed (weighting by capacity)
  double linkDelaySec = 0.0; ///< one-way propagation of this cable
  /// Expected time for a newly-arriving 1500 B packet to clear the port:
  /// the queue's drain time plus the packet's own serialization, plus the
  /// cable's propagation delay. "Shortest queue" decisions compare this
  /// rather than raw bytes: under heterogeneous link rates (asymmetric
  /// fabrics) an *empty* slow link is still a bad choice, and a short
  /// queue on a slow link can outlast a long queue on a fast one. Falls
  /// back to the byte count when the view carries no rate (then the
  /// +1500 would shift all ports equally). Seconds, or bytes without a
  /// rate.
  double wait = 0.0;
};

/// The candidate uplinks for a routing decision: the up ports of the
/// uplink group, in group order. A switch keeps one such view current as
/// its queues change (Switch::uplinkView), so a decision reads stored
/// state instead of rebuilding it.
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
