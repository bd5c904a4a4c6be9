#include "sim/simulator.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tlbsim::sim {

void Simulator::installTrace(obs::EventTrace& trace) {
  scheduler_.setPeriodicTickHook([&trace](const char* name, SimTime t) {
    if (name != nullptr) trace.instant("sim", name, t);
  });
}

void Simulator::addCountersTo(obs::MetricsRegistry& metrics) const {
  metrics.counter("sim.periodic_ticks").inc(scheduler_.periodicFires());
}

}  // namespace tlbsim::sim
