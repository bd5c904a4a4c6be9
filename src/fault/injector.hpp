// FaultInjector: turns a FaultPlan into scheduled simulator events that
// mutate the network at runtime. It is the single component allowed to
// call the Link fault mutators (enforced by the tlbsim-lint
// `fault-mutation` rule), so every disruption in a run is traceable to a
// plan event.
//
// Each plan event applies to BOTH directions of the named leaf<->spine
// cable (leaf->spine uplink and spine->leaf downlink), matching the
// static-asymmetry convention of LeafSpineConfig::LinkOverride. Gray
// failures draw their per-packet losses from a link-local RNG seeded from
// (run seed, leaf, spine, direction), so runs are reproducible for any
// worker count.
#pragma once

#include <cstdint>
#include <string>

#include "fault/plan.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::obs {
class MetricsRegistry;
class EventTrace;
}  // namespace tlbsim::obs

namespace tlbsim::fault {

class FaultMonitor;

class FaultInjector {
 public:
  /// The topology and simulator must outlive the injector; the plan is
  /// copied. Every event's link indices are validated against the
  /// topology on install().
  FaultInjector(FaultPlan plan, net::LeafSpineTopology& topo,
                sim::Simulator& simr, std::uint64_t seed);

  /// Recovery-metric observer, notified of each event just before it is
  /// applied (so the monitor snapshots pre-fault state). Optional; must
  /// outlive the injector.
  void setMonitor(FaultMonitor* monitor) { monitor_ = monitor; }

  /// Emit one instant event per applied fault on a dedicated "fault"
  /// track of `trace`.
  void installTrace(obs::EventTrace& trace);

  /// Add the events applied so far to "fault.events_applied".
  void addCountersTo(obs::MetricsRegistry& metrics) const;

  /// Validate the plan against the topology and schedule every event.
  /// Call at most once, before the run starts.
  void install();

  std::uint64_t eventsApplied() const { return applied_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void apply(const FaultEvent& ev);

  FaultPlan plan_;
  net::LeafSpineTopology& topo_;
  sim::Simulator& sim_;
  std::uint64_t seed_;
  FaultMonitor* monitor_ = nullptr;
  std::uint64_t applied_ = 0;
  bool installed_ = false;

  obs::EventTrace* trace_ = nullptr;
  int traceTid_ = 0;
};

}  // namespace tlbsim::fault
