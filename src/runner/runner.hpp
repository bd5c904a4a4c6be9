// Parallel sweep engine: executes every point of a SweepSpec as an
// independent harness::Experiment on a pool of worker threads, then
// aggregates the results into per-point summary statistics and one
// machine-readable JSON report (the BENCH_*.json trajectory).
//
// Threading model — share-nothing by construction:
//   * each worker claims points off an atomic counter (no queue, no locks
//     on the hot path);
//   * every run builds its own Simulator/topology/transport stack from a
//     config the worker owns, seeds it with the point's derived runSeed,
//     and records into sinks that are that worker's locals (a config holds
//     no sink, so a scenario's base config cannot share one across runs);
//   * results land in a pre-sized vector slot owned by the point's index,
//     and aggregation runs after the join, in index order.
// Consequently the report — including its serialized JSON — is
// byte-identical for any worker count; tests/runner asserts exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/run_summary.hpp"
#include "runner/sweep.hpp"
#include "util/summary_stats.hpp"

namespace tlbsim::runner {

/// Builds the experiment for one point: topology, scheme knobs, TCP
/// parameters, durations — everything except the flow list, which the
/// workload stage generates after variant overrides and the derived seed
/// have been applied (so topology overrides stay consistent with it).
using BaseConfigFn =
    std::function<harness::ExperimentConfig(const SweepPoint&)>;

/// Fills cfg.flows. Runs after overrides/seeding; generators should draw
/// their randomness from cfg.seed (which is the point's derived runSeed).
using WorkloadFn =
    std::function<void(harness::ExperimentConfig&, const SweepPoint&)>;

/// A sweepable experiment family = base config + workload generator.
struct SweepScenario {
  BaseConfigFn base;
  WorkloadFn workload;  ///< optional when base() already fills flows
};

struct RunnerOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int jobs = 1;
  /// Give every run its own MetricsRegistry (the per-run counters are
  /// then folded into its RunSummary).
  bool collectMetrics = false;
  /// Give every run its own FlowProbe; its bounded "flows.*" summary
  /// (reorder rate, path churn, matrix imbalance, ...) is folded into the
  /// RunSummary, so the per-flow records themselves never cross the
  /// aggregation boundary.
  bool collectFlows = false;
  /// When non-empty, implies collectFlows and additionally writes every
  /// run's per-flow records to this NDJSON file, concatenated in point
  /// index order after the join — byte-identical for any worker count.
  std::string flowsNdjsonPath;
  /// Give every run its own app::QueryProbe (no-op for runs whose config
  /// leaves the app layer disabled); its "app.probe_*" summary is folded
  /// into the RunSummary.
  bool collectQueries = false;
  /// When non-empty, implies collectQueries and additionally writes every
  /// run's per-query records to this NDJSON file, concatenated in point
  /// index order after the join — byte-identical for any worker count.
  std::string queriesNdjsonPath;
  /// Progress hook, called after each run completes. Serialized by the
  /// engine's mutex, so it may print/aggregate without its own locking.
  /// Runs finish in scheduling order, not index order.
  std::function<void(const SweepPoint&, const harness::ExperimentResult&)>
      onRunDone;
};

/// One executed point.
struct RunOutcome {
  SweepPoint point;
  harness::ExperimentResult result;
  obs::RunSummary summary;
  /// Host wall-clock of this run. Kept out of the JSON report, which must
  /// stay byte-identical across job counts.
  double wallSeconds = 0.0;
  /// This run's per-flow NDJSON block (only when flowsNdjsonPath is set).
  /// Kept out of the report JSON; runSweep concatenates the blocks in
  /// index order into the NDJSON file.
  std::string flowsNdjson;
  /// Per-query NDJSON block (only when queriesNdjsonPath is set).
  std::string queriesNdjson;
};

/// Seed-axis statistics of one sweep configuration (a groupKey).
struct PointAggregate {
  SweepPoint point;       ///< representative (first-seed) point
  std::size_t runs = 0;
  /// Per-metric stats over the group's runs, in first-run key order.
  std::vector<std::pair<std::string, RunningStats>> metrics;

  const RunningStats* stats(const std::string& name) const;
  /// Mean over seeds; 0 when the metric is absent.
  double mean(const std::string& name) const;
};

struct SweepReport {
  SweepSpec spec;                          ///< the spec that produced it
  std::vector<RunOutcome> runs;            ///< expansion (index) order
  std::vector<PointAggregate> aggregates;  ///< first-occurrence order
  double wallSeconds = 0.0;  ///< whole-sweep wall clock (not serialized)

  const PointAggregate* find(harness::Scheme scheme) const;
  const PointAggregate* find(harness::Scheme scheme, double load) const;
  const PointAggregate* find(harness::Scheme scheme,
                             const std::string& variantLabel) const;

  /// {"sweep": {...}, "runs": [...], "aggregates": [...]}. Deterministic:
  /// depends only on the spec and the per-run results, never on timing or
  /// worker count.
  std::string toJson() const;
  bool writeJsonFile(const std::string& path) const;
};

/// Expand the spec and run every point. Throws std::runtime_error when a
/// scenario/override rejects a point (after all workers have drained).
SweepReport runSweep(const SweepSpec& spec, const SweepScenario& scenario,
                     const RunnerOptions& opt = {});

/// The worker count `jobs` resolves to (<= 0 -> hardware concurrency,
/// floored at 1).
int resolveJobs(int jobs);

}  // namespace tlbsim::runner
