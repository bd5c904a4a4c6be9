#include "lb/flow_state_table.hpp"

#include "obs/metrics.hpp"

namespace tlbsim::lb {

void FlowStateTableBase::addCountersTo(obs::MetricsRegistry& metrics,
                                       const std::string& label) const {
  const std::string p = "lb." + label + ".";
  metrics.gauge(p + "tracked_flows").set(static_cast<double>(size_));
  metrics.counter(p + "purged_flows").inc(stats_.purgedIdle);
  metrics.counter(p + "evicted_flows").inc(stats_.evictedCapacity);
}

}  // namespace tlbsim::lb
