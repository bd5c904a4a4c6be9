#include "fault/injector.hpp"

#include "fault/monitor.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace tlbsim::fault {

namespace {

/// Deterministic per-(link, direction) RNG seed for gray failures:
/// a splitmix64 chain over the run seed and the link identity.
std::uint64_t graySeed(std::uint64_t seed, int leaf, int spine,
                       int direction) {
  std::uint64_t x = splitmix64(seed ^ 0xfa117ULL);
  x = splitmix64(x ^ static_cast<std::uint64_t>(leaf));
  x = splitmix64(x ^ static_cast<std::uint64_t>(spine));
  return splitmix64(x ^ static_cast<std::uint64_t>(direction));
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, net::LeafSpineTopology& topo,
                             sim::Simulator& simr, std::uint64_t seed)
    : plan_(std::move(plan)), topo_(topo), sim_(simr), seed_(seed) {}

void FaultInjector::installTrace(obs::EventTrace& trace) {
  trace_ = &trace;
  traceTid_ = trace.newTrack("fault");
}

void FaultInjector::addCountersTo(obs::MetricsRegistry& metrics) const {
  metrics.counter("fault.events_applied").inc(applied_);
}

void FaultInjector::install() {
  TLBSIM_ASSERT(!installed_, "FaultInjector::install() called twice");
  installed_ = true;
  for (const auto& ev : plan_.events) {
    TLBSIM_ASSERT(ev.leaf >= 0 && ev.leaf < topo_.numLeaves(),
                  "fault event leaf %d outside [0, %d)", ev.leaf,
                  topo_.numLeaves());
    TLBSIM_ASSERT(ev.spine >= 0 && ev.spine < topo_.numSpines(),
                  "fault event spine %d outside [0, %d)", ev.spine,
                  topo_.numSpines());
  }
  // Scheduled in declaration order, so same-time events keep it (the
  // scheduler breaks timestamp ties by scheduling order).
  for (const auto& ev : plan_.events) {
    sim_.postAt(ev.at, [this, ev] { apply(ev); });
  }
}

void FaultInjector::apply(const FaultEvent& ev) {
  // The monitor snapshots which flows sit on the link BEFORE the mutation
  // disturbs it.
  if (monitor_ != nullptr) monitor_->onFault(ev);

  net::Link& uplink = topo_.leafUplink(ev.leaf, ev.spine);
  net::Link& downlink = topo_.spineDownlink(ev.spine, ev.leaf);
  switch (ev.kind) {
    case FaultEvent::Kind::kDown:
      uplink.faultDown(plan_.drainOnDown);
      downlink.faultDown(plan_.drainOnDown);
      break;
    case FaultEvent::Kind::kUp:
      uplink.faultUp();
      downlink.faultUp();
      break;
    case FaultEvent::Kind::kRateFactor:
      uplink.faultSetRateFactor(ev.value);
      downlink.faultSetRateFactor(ev.value);
      break;
    case FaultEvent::Kind::kDelayFactor:
      uplink.faultSetDelayFactor(ev.value);
      downlink.faultSetDelayFactor(ev.value);
      break;
    case FaultEvent::Kind::kDropProb:
      uplink.faultSetDropProb(ev.value,
                              graySeed(seed_, ev.leaf, ev.spine, 0));
      downlink.faultSetDropProb(ev.value,
                                graySeed(seed_, ev.leaf, ev.spine, 1));
      break;
  }
  ++applied_;
  if (trace_ != nullptr) {
    trace_->instant("fault", toString(ev.kind), sim_.now(),
                    {{"leaf", static_cast<double>(ev.leaf)},
                     {"spine", static_cast<double>(ev.spine)},
                     {"value", ev.value}},
                    traceTid_);
  }
  TLBSIM_LOG_INFO("fault: %s leaf%d-spine%d value=%.3f t=%.3fms",
                  toString(ev.kind), ev.leaf, ev.spine, ev.value,
                  toMilliseconds(sim_.now()));
}

}  // namespace tlbsim::fault
