#include "lb/flow_state_table.hpp"

#include "obs/metrics.hpp"

namespace tlbsim::lb {

void FlowStateTableBase::installObs(obs::MetricsRegistry& metrics,
                                    const std::string& label) {
  const std::string p = "lb." + label + ".";
  gTracked_ = &metrics.gauge(p + "tracked_flows");
  cPurged_ = &metrics.counter(p + "purged_flows");
  cEvicted_ = &metrics.counter(p + "evicted_flows");
  // Snapshot what happened before wiring (installObs may run after the
  // table has already seen setup traffic): removals stay never-silent.
  cPurged_->inc(stats_.purgedIdle);
  cEvicted_->inc(stats_.evictedCapacity);
}

void FlowStateTableBase::publishTracked(std::size_t n) {
  if (gTracked_ != nullptr) gTracked_->set(static_cast<double>(n));
}

void FlowStateTableBase::notePurged(std::uint64_t n, std::size_t tracked) {
  if (cPurged_ != nullptr) cPurged_->inc(n);
  publishTracked(tracked);
}

void FlowStateTableBase::noteEvicted(std::size_t tracked) {
  if (cEvicted_ != nullptr) cEvicted_->inc();
  publishTracked(tracked);
}

}  // namespace tlbsim::lb
