// Out-of-line selector definitions (attach hooks and state upkeep).
#include "lb/conga.hpp"
#include "lb/fixed_granularity.hpp"
#include "lb/hermes_like.hpp"
#include "lb/letflow.hpp"
#include "lb/presto.hpp"
#include "net/switch.hpp"

namespace tlbsim::lb {

namespace {

/// Shared flow-state upkeep: every scheme keeping a FlowStateTable sweeps
/// it on the same coarse cadence. Correctness only needs entries to be
/// *eventually* dropped (a purged flow that resumes simply re-decides, as
/// it would after any idle gap); the table's idleTimeout (default 1 s)
/// bounds how long a dead flow can occupy a slot, and its maxFlows cap
/// bounds state even between sweeps.
constexpr SimTime kPurgeSweepInterval = milliseconds(100);

template <typename Table>
void armPurgeSweep(sim::Simulator& simr, Table& table) {
  simr.every(kPurgeSweepInterval,
             [&simr, &table] { table.purgeIdle(simr.now()); });
}

}  // namespace

void HermesLike::attach(net::Switch& sw, sim::Simulator& simr) {
  UplinkSelector::attach(sw, simr);
  // Periodic condition sensing: EWMA-smooth every uplink's expected wait.
  simr.every(kTick, [this] { waits_.sample(switch_->uplinkView()); });
  armPurgeSweep(simr, flows_);
}

void Conga::attach(net::Switch& sw, sim::Simulator& simr) {
  UplinkSelector::attach(sw, simr);
  // DRE aging: multiply every estimator by (1 - alpha) each interval.
  simr.every(kDreInterval, [this] {
    for (double& value : dre_) value *= 1.0 - kDreAlpha;
  });
  armPurgeSweep(simr, flows_);
}

void LetFlow::attach(net::Switch& sw, sim::Simulator& simr) {
  UplinkSelector::attach(sw, simr);
  armPurgeSweep(simr, flows_);
}

void Presto::attach(net::Switch& sw, sim::Simulator& simr) {
  UplinkSelector::attach(sw, simr);
  // A purged flow restarts at cell 0 of a fresh byte counter — after an
  // idleTimeout of silence the in-flight window is long gone, so the
  // reset cannot reorder anything.
  armPurgeSweep(simr, flows_);
}

void FixedGranularity::attach(net::Switch& sw, sim::Simulator& simr) {
  UplinkSelector::attach(sw, simr);
  armPurgeSweep(simr, flows_);
}

}  // namespace tlbsim::lb
