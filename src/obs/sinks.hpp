// The one wiring point between a run and its observability consumers: a
// small value struct of nullable sink pointers. Both null (the default)
// means observability is fully disabled and the instrumented hot paths pay
// one well-predicted branch per site, nothing more.
//
// Ownership is the caller's: a Sinks never owns what it points to. The
// experiment harness copies the struct, so the pointed-to registry/trace
// must outlive the run; runs that want private sinks own them through
// harness::Experiment::ownMetrics()/ownTrace() instead of sharing raw
// pointers with the harness.
#pragma once

namespace tlbsim::obs {

class MetricsRegistry;
class EventTrace;
class FlowProbe;

struct Sinks {
  /// When set, the run records the q_th time series and a periodic
  /// queue-depth sampler into this registry, and adds every component's
  /// counts (per-port drop/ECN/tx, TLB decisions, TCP totals, ...) to it
  /// when it ends.
  MetricsRegistry* metrics = nullptr;

  /// When set, packet serializations/drops/marks on the leaf uplinks, TLB
  /// control ticks and TCP loss events are recorded as Chrome trace
  /// events.
  EventTrace* trace = nullptr;

  /// When set, per-flow decision telemetry is recorded: one FlowRecord
  /// per workload flow (retransmits, OOO attribution, uplink shares,
  /// decision timeline) plus the (leaf, uplink) path-utilization matrix.
  FlowProbe* flows = nullptr;

  bool any() const {
    return metrics != nullptr || trace != nullptr || flows != nullptr;
  }
};

}  // namespace tlbsim::obs
