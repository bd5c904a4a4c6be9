// FaultMonitor: per-run recovery metrics for fault-injection experiments.
//
// Three questions, answered scheme-agnostically from dequeue hooks on the
// leaf uplinks (the load-balancing decision point):
//
//   * time-to-reroute — for every long flow whose current uplink is hit
//     by a disruptive fault, the delay until its first data packet leaves
//     a DIFFERENT uplink of the same leaf. A scheme that masks dead ports
//     reroutes within one selection; a scheme blind to the fault kind
//     (e.g. gray failure vs queue-length signals) may never reroute.
//   * goodput dip — periodic samples of a caller-provided
//     acked-long-flow-bytes probe; the dip ratio compares the minimum
//     per-interval rate just after the first disruptive fault against the
//     mean rate just before it (1.0 = no dip, 0.0 = full stall). Only the
//     2 * kDipWindow + 1 samples the ratio reads are kept.
//   * affected vs rerouted counts — how much of the long-flow population
//     the fault touched and how much of it escaped.
//
// Everything is recorded in event order (vectors, no unordered iteration
// feeding order-dependent sums), so the derived metrics are byte-stable
// across sweep worker counts.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"
#include "util/flow_index.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {
class FlowProbe;
}

namespace tlbsim::fault {

class FaultMonitor {
 public:
  struct Config {
    /// Goodput sampling cadence (TLB's control interval by default).
    SimTime sampleInterval = microseconds(500);
  };
  /// Pre/post window width for the dip ratio, in sample intervals.
  static constexpr int kDipWindow = 10;

  /// Attaches dequeue hooks to every leaf uplink of `topo` and starts the
  /// goodput sampler. `isLong` classifies flow ids (only long flows are
  /// tracked for rerouting — short flows finish too fast for a stable
  /// reroute time). The topology and simulator must outlive the monitor.
  /// (No default for `cfg`: a default argument here would need Config's
  /// member initializers before the enclosing class is complete — callers
  /// pass Config{} explicitly.)
  FaultMonitor(net::LeafSpineTopology& topo, sim::Simulator& simr,
               std::function<bool(FlowId)> isLong, Config cfg);

  /// Acked-bytes probe for the goodput samples (typically the sum of
  /// bytesAcked over all long-flow senders). Optional; without it the dip
  /// ratio stays 1.0.
  void setGoodputProbe(std::function<ByteCount()> ackedBytes) {
    probe_ = std::move(ackedBytes);
  }

  /// Wire the per-flow decision probe: the moment an affected flow's
  /// first data packet leaves a different uplink, a fault-reroute
  /// decision event is recorded with the escaped spine and the reroute
  /// delay. Nullable hot-path contract.
  void setFlowProbe(obs::FlowProbe* probe) { flowProbe_ = probe; }

  /// Called by the injector just before each plan event is applied.
  void onFault(const FaultEvent& ev);

  /// Drop a flow whose endpoints are being reused (it has drained: no
  /// packet of it is left to dequeue), so the maps hold only flows still
  /// live or draining. The results do not move: a dropped flow that was
  /// not awaiting a reroute still counts as affected by the next
  /// disruptive fault on its last uplink, as it would have if kept.
  void forgetFlow(FlowId flow);
  /// Flows with a recorded last uplink (every flow the monitor holds).
  std::size_t trackedFlows() const { return currentUplink_.size(); }
  bool tracks(FlowId flow) const {
    return currentUplink_.find(flow) != nullptr ||
           pending_.find(flow) != nullptr;
  }

  // --- results ----------------------------------------------------------
  SimTime firstDisruptiveAt() const { return firstDisruptiveAt_; }
  /// Long flows whose current uplink was hit by a disruptive fault.
  int affectedLongFlows() const { return affected_; }
  /// Of those, how many later sent data on a different uplink.
  int reroutedLongFlows() const {
    return static_cast<int>(rerouteTimes_.size());
  }
  double meanRerouteSec() const;
  double maxRerouteSec() const;
  /// Per-flow reroute delays (seconds) in reroute order.
  const std::vector<double>& rerouteTimesSec() const {
    return rerouteTimes_;
  }
  /// min(post-fault interval rate) / mean(pre-fault interval rate);
  /// 1.0 when no disruptive fault fired or no probe was installed.
  double goodputDipRatio() const;
  /// Goodput samples held right now.
  std::size_t goodputSamples() const { return samples_.size(); }

 private:
  struct Pending {
    SimTime faultAt;
    int leaf = 0;
    int spine = 0;
  };

  void onDequeue(int leaf, int spine, const net::Packet& pkt);

  net::LeafSpineTopology& topo_;
  sim::Simulator& sim_;
  std::function<bool(FlowId)> isLong_;
  Config cfg_;
  std::function<ByteCount()> probe_;

  /// Last leaf uplink each tracked long flow sent data on.
  util::FlowIndex<std::pair<int, int>> currentUplink_;
  /// Flows awaiting their first post-fault dequeue on another uplink.
  util::FlowIndex<Pending> pending_;
  /// Per leaf uplink (leaf * spines + spine): forgotten flows that last
  /// sent there and were not awaiting a reroute. The next disruptive
  /// fault there counts them as affected, then they are spent.
  std::vector<int> forgottenOn_;
  std::vector<double> rerouteTimes_;  ///< seconds, in reroute order
  int affected_ = 0;
  SimTime firstDisruptiveAt_ = -1_ns;
  obs::FlowProbe* flowProbe_ = nullptr;  ///< null = disabled

  /// (time, probe()) samples in time order: the last kDipWindow + 1 at or
  /// before the first disruptive fault, then the first kDipWindow after.
  std::vector<std::pair<SimTime, ByteCount>> samples_;
  int postFaultSamples_ = 0;
};

}  // namespace tlbsim::fault
