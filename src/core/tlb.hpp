// TLB: the paper's contribution, assembled as a switch-resident
// UplinkSelector (Fig. 6 architecture).
//
//   Granularity Calculator = GranularityCalculator fed by the flow table's
//     short/long counts, driven by a periodic timer every
//     cfg.updateInterval (500 µs),
//   Forwarding Manager     = selectUplink():
//     * short flows  -> per-packet shortest queue,
//     * long flows   -> stay on the current uplink until its queue length
//                       reaches q_th, then move to the shortest queue.
//
// Deployed at leaf switches only; end hosts are unmodified (paper §5).
#pragma once

#include <cstdint>
#include <memory>

#include "core/deadline_tracker.hpp"
#include "core/flow_table.hpp"
#include "core/granularity_calculator.hpp"
#include "core/tlb_config.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "util/rng.hpp"

namespace tlbsim::obs {
class EventTrace;
class MetricsRegistry;
class Series;
}  // namespace tlbsim::obs

namespace tlbsim::core {

class Tlb final : public net::UplinkSelector {
 public:
  Tlb(const TlbConfig& cfg, int numPaths, std::uint64_t seed);

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override;

  /// Registers the periodic granularity update + idle sweep.
  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "TLB"; }

  lb::FlowStateTableBase* flowState() override { return &table_.stateTable(); }

  // --- introspection (tests, Fig. 7 harness, overhead bench) ------------
  const FlowTable& flowTable() const { return table_; }
  const GranularityCalculator& calculator() const { return calc_; }
  /// The D used by the last control tick (config or auto-estimated).
  SimTime effectiveDeadline() const { return effectiveDeadline_; }
  ByteCount qthBytes() const { return calc_.qthBytes(); }
  std::uint64_t longFlowSwitches() const { return longSwitches_; }

  /// Run one control-loop tick explicitly (normally timer-driven).
  void controlTick();

  /// Record the q_th time series ("tlb.<label>.qth_bytes", one point per
  /// control tick) and, when `trace` is non-null, a Perfetto counter track
  /// graphing q_th and live flow counts, plus an instant per long-flow
  /// reroute. Either sink may be null. Costs one null-pointer branch per
  /// tick and per reroute when not installed.
  void installObs(obs::MetricsRegistry* metrics, obs::EventTrace* trace,
                  const std::string& label);

  /// Add this instance's decision counts so far to
  /// "tlb.<label>.short.spray", ".short.sticky_stay", ".long.stay",
  /// ".long.reroute", ".reclassified_long" and ".control_ticks".
  void addCountersTo(obs::MetricsRegistry& metrics,
                     const std::string& label) const;

 private:
  int shortest(const net::UplinkView& uplinks) {
    return uplinks[lb::shortestQueueIndex(uplinks, rng_)].port;
  }

  TlbConfig cfg_;
  FlowTable table_;
  GranularityCalculator calc_;
  DeadlineTracker deadlines_;
  SimTime effectiveDeadline_;
  Rng rng_;
  /// The long-flow escape signal, sampled by the control tick.
  lb::SmoothedWaits waits_;
  // Decision counts, by outcome.
  std::uint64_t shortSprays_ = 0;
  std::uint64_t shortStickyStays_ = 0;
  std::uint64_t longStays_ = 0;
  std::uint64_t longSwitches_ = 0;  ///< long-flow reroutes
  std::uint64_t reclassified_ = 0;
  std::uint64_t controlTicks_ = 0;

  // Observability sinks (null = disabled; see installObs).
  obs::Series* qthSeries_ = nullptr;
  obs::EventTrace* trace_ = nullptr;
  const char* traceName_ = nullptr;
};

}  // namespace tlbsim::core
