// One experiment = topology + scheme + flow list, run to completion, with
// the measurements the paper's figures need collected along the way. The
// topology is the paper's leaf-spine, or a k-ary fat-tree when
// ExperimentConfig::fatTree is set; either way the run is one net::Fabric
// under the same obs, audit and app wiring.
//
// ExperimentConfig says what to simulate; Sinks says where a run records
// besides its result, and is an argument of the run, never configuration.
// An Experiment keeps a copy of its config and runs it: run() builds the
// whole simulation, writes only to the sinks it is given, and returns a
// self-contained value-type ExperimentResult that shares no mutable state
// with the harness — which is what lets the runner execute many
// Experiments on concurrent threads without any locking.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "app/app_config.hpp"
#include "fault/plan.hpp"
#include "harness/scheme.hpp"
#include "net/fat_tree.hpp"
#include "net/leaf_spine.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "stats/flow_ledger.hpp"
#include "stats/queue_monitor.hpp"
#include "transport/tcp_params.hpp"
#include "util/summary_stats.hpp"
#include "util/units.hpp"

namespace tlbsim::app {
class QueryProbe;
}

namespace tlbsim::obs {
class EventTrace;
class FlowProbe;
}  // namespace tlbsim::obs

namespace tlbsim::harness {

struct ExperimentConfig {
  /// The leaf-spine fabric; ignored when `fatTree` is set.
  net::LeafSpineConfig topo;
  /// Run on a k-ary fat-tree instead, with selectors at both the edge and
  /// the aggregation tier. The fault plan must be empty: faults name
  /// leaf-spine links.
  std::optional<net::FatTreeConfig> fatTree;
  SchemeConfig scheme;
  transport::TcpParams tcp;
  std::vector<transport::FlowSpec> flows;

  /// Hard stop (simulated time); flows unfinished by then count as
  /// incomplete (and as deadline misses if they carry deadlines).
  SimTime maxDuration = seconds(10);

  /// Time-series sampling period; 0 disables sampling.
  SimTime sampleInterval;

  /// Classification boundary for reporting (matches TLB's table).
  static constexpr ByteCount shortThreshold = transport::kShortFlowSize;

  std::uint64_t seed = 1;

  /// TLB's physical parameters (RTT, capacity, buffer, ECN cap) are always
  /// derived from the topology before the run.
  static constexpr bool autoFillTlbFromTopology = true;

  /// Cadence of the fault monitor's goodput samples (TLB's control
  /// interval).
  static constexpr SimTime obsSampleInterval = microseconds(500);

  // --- application layer (tlbsim::app) ----------------------------------
  /// Closed-loop partition-aggregate RPC service running on top of the
  /// hosts/transport, alongside (or instead of) the static flow list.
  /// Disabled by default (app.queries == 0), which keeps pre-app runs and
  /// their summary JSON byte-identical. Populated from `app.*` overrides
  /// or the CLI's --app flags.
  app::AppConfig app;

  // --- fault injection (tlbsim::fault) ----------------------------------
  /// Declarative link-fault schedule, applied by a FaultInjector during
  /// the run (empty = no faults, zero overhead). Populated from the
  /// `fault.link` / `fault.drain` overrides or the CLI's --fault flags.
  /// A non-empty plan also arms a FaultMonitor that measures per-scheme
  /// recovery: time-to-reroute, goodput dip, and FCT inflation.
  fault::FaultPlan fault;

  // --- invariant audit (tlbsim::check) ----------------------------------
  /// kAuto enables the audit in Debug builds (every test run then doubles
  /// as a conservation check) and disables it in Release; kOn/kOff force
  /// it either way. A violation aborts with the offending invariant.
  enum class Audit { kAuto, kOn, kOff };
  Audit audit = Audit::kAuto;
};

struct ExperimentResult {
  stats::FlowLedger ledger;

  // Time series (only populated when sampleInterval > 0).
  obs::Series shortDupAckRatio;   ///< Fig. 8(a)
  obs::Series shortQueueDelayUs;  ///< Fig. 8(b)
  obs::Series longOooRatio;       ///< Fig. 9(a)
  obs::Series longThroughputGbps; ///< Fig. 9(b), per-flow mean
  obs::Series fabricUtilization;  ///< Fig. 4(a)

  // Queue-delay distributions at the access switches' uplink queues (the
  // sender leaf's on a leaf-spine). Short-flow samples are exact; long-flow
  // ones are bucketed (no figure plots them).
  SampleSet shortQueueLenPkts;  ///< Fig. 3(a)
  SampleSet shortDelayUsAll;    ///< Fig. 8 (mean)
  obs::Histogram longQueueLenPkts{stats::queueSampleBounds()};

  std::uint64_t totalDrops = 0;
  std::uint64_t totalEcnMarks = 0;
  /// Sum over decision switches (TLB runs only).
  std::uint64_t tlbLongSwitches = 0;
  SimTime endTime;
  double meanFabricUtilization = 0.0;
  std::uint64_t executedEvents = 0;  ///< discrete events the run processed

  // Invariant-audit outcome (zeros when the audit was disabled).
  std::uint64_t auditTicks = 0;
  std::uint64_t auditChecks = 0;
  std::uint64_t auditViolations = 0;

  // Application-layer outcome (all zero when cfg.app is disabled).
  int appQueriesLaunched = 0;
  int appQueriesCompleted = 0;
  int appSloMisses = 0;  ///< completed-late plus unfinished (SLO set)
  std::uint64_t appRetries = 0;
  std::uint64_t appDuplicates = 0;
  std::uint64_t appRpcFlows = 0;  ///< request+response flows incl. retries
  SampleSet appQctSeconds;        ///< QCT of completed queries

  // Fault-injection outcome (defaults when cfg.fault was empty).
  std::uint64_t faultEventsApplied = 0;
  std::uint64_t faultDrops = 0;  ///< sum over links, all fault-loss classes
  SimTime firstFaultAt = -1_ns;     ///< first *disruptive* event, -1 if none
  int faultAffectedLongFlows = 0;
  int faultReroutedLongFlows = 0;
  double faultMeanRerouteSec = 0.0;
  double faultMaxRerouteSec = 0.0;
  /// min(post-fault goodput) / mean(pre-fault goodput); 1.0 = no dip.
  double faultGoodputDipRatio = 1.0;
  /// Mean FCT of short flows in flight at the first disruptive fault,
  /// relative to the other completed short flows (0 when inapplicable).
  double faultShortFctInflation = 0.0;

  // --- the aggregates the paper reports -------------------------------
  double shortAfctSec() const {
    return ledger.afct(stats::FlowLedger::isShort);
  }
  double shortP99Sec() const {
    return ledger.fctPercentile(stats::FlowLedger::isShort, 99.0);
  }
  double shortMissRatio() const {
    return ledger.deadlineMissRatio(stats::FlowLedger::isShort);
  }
  double longGoodputGbps() const {
    return ledger.meanGoodputBps(stats::FlowLedger::isLong) / 1e9;
  }
  double shortDupAckRatioTotal() const {
    return ledger.dupAckRatio(stats::FlowLedger::isShort);
  }
  double longOooRatioTotal() const {
    return ledger.outOfOrderRatio(stats::FlowLedger::isLong);
  }

  // --- query-level aggregates (the app layer's headline numbers) -------
  double appQctMeanSec() const {
    return appQctSeconds.empty() ? 0.0 : appQctSeconds.mean();
  }
  double appQctP50Sec() const {
    return appQctSeconds.empty() ? 0.0 : appQctSeconds.percentile(50.0);
  }
  double appQctP99Sec() const {
    return appQctSeconds.empty() ? 0.0 : appQctSeconds.percentile(99.0);
  }
  /// SLO misses over launched queries (0 when no SLO / no queries).
  double appSloMissRatio() const {
    return appQueriesLaunched > 0
               ? static_cast<double>(appSloMisses) /
                     static_cast<double>(appQueriesLaunched)
               : 0.0;
  }
};

/// Where one run records besides its result. All four are nullable and
/// null by default: a run without sinks pays one well-predicted branch per
/// instrumented site. The caller owns the sinks, which must outlive run().
struct Sinks {
  /// The q_th time series, a periodic queue-depth sampler, and every
  /// component's counts (per-port drop/ECN/tx, TLB decisions, TCP totals,
  /// ...), added when the run ends.
  obs::MetricsRegistry* metrics = nullptr;
  /// Packet serializations/drops/marks on the access uplinks, TLB control
  /// ticks and TCP loss events, as Chrome trace events.
  obs::EventTrace* trace = nullptr;
  /// One FlowRecord per static flow (retransmits, OOO attribution, uplink
  /// shares, decision timeline) plus the (leaf, uplink) path matrix.
  obs::FlowProbe* flows = nullptr;
  /// One QueryRecord per app-layer query; unused when the app is off.
  app::QueryProbe* queries = nullptr;
};

/// One configured run. run() may be called repeatedly and each call is an
/// independent, identically-seeded simulation.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)) {}

  const ExperimentConfig& config() const { return cfg_; }

  /// Build the network, run the flow list, and collect results, recording
  /// into `sinks` along the way.
  ExperimentResult run(const Sinks& sinks = {}) const;

 private:
  ExperimentConfig cfg_;
};

/// Convenience wrapper: Experiment(cfg).run(sinks).
ExperimentResult runExperiment(const ExperimentConfig& cfg,
                               const Sinks& sinks = {});

/// Flatten the headline results of a run into a RunSummary (the JSON the
/// bench binaries emit). Callers add their own metadata (figure,
/// workload, sweep point) on top.
obs::RunSummary summarizeExperiment(const ExperimentConfig& cfg,
                                    const ExperimentResult& res);

}  // namespace tlbsim::harness
