// Simulator facade: owns the scheduler and the run loop, wires the trace
// sink into the scheduler's periodic-tick hook and reports the scheduler's
// periodic-fire count at run end (the timer machinery itself — including
// the 500 µs control loops — lives in Scheduler::every).
#pragma once

#include <utility>

#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {
class EventTrace;
class MetricsRegistry;
}  // namespace tlbsim::obs

namespace tlbsim::sim {

class Simulator {
 public:
  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  SimTime now() const { return scheduler_.now(); }

  // The callable is forwarded to the scheduler, which builds it where the
  // event waits (see Scheduler::post).
  template <typename F>
  [[nodiscard]] EventHandle schedule(SimTime delay, F&& fn) {
    return scheduler_.schedule(delay, std::forward<F>(fn));
  }
  template <typename F>
  [[nodiscard]] EventHandle scheduleAt(SimTime when, F&& fn) {
    return scheduler_.scheduleAt(when, std::forward<F>(fn));
  }

  /// Fire-and-forget: no handle, for events never cancelled.
  template <typename F>
  void post(SimTime delay, F&& fn) {
    scheduler_.post(delay, std::forward<F>(fn));
  }
  template <typename F>
  void postAt(SimTime when, F&& fn) {
    scheduler_.postAt(when, std::forward<F>(fn));
  }

  /// Register `fn` to fire every `period` starting at `start`; see
  /// Scheduler::every for the bounded-run parking semantics and the
  /// lifetime requirement on `name`.
  void every(SimTime period, EventFn fn, SimTime start = {},
             const char* name = nullptr) {
    scheduler_.every(period, std::move(fn), start, name);
  }

  /// Run until `limit` (absolute time) or event exhaustion.
  std::uint64_t run(SimTime limit = Scheduler::kMaxTime) {
    return scheduler_.run(limit);
  }

  /// Named periodic timers then emit a "sim" instant event per tick on
  /// `trace`. Without this call a tick pays one branch for the hook.
  void installTrace(obs::EventTrace& trace);

  /// Add every periodic-timer fire so far to "sim.periodic_ticks".
  void addCountersTo(obs::MetricsRegistry& metrics) const;

 private:
  Scheduler scheduler_;
};

}  // namespace tlbsim::sim
