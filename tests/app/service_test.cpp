// End-to-end behavior of app::Service through the harness: arrival
// processes, placement, the duplicate knob, determinism, and coexistence
// with a static flow workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "app/query_probe.hpp"
#include "app/service.hpp"
#include "harness/experiment.hpp"
#include "lb/ecmp.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"

namespace tlbsim::app {
namespace {

using harness::ExperimentConfig;
using harness::Scheme;

/// Small fabric, app-only run: 2 leaves x 4 spines, 4 hosts per leaf.
ExperimentConfig appConfig(int queries, std::uint64_t seed = 3) {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 4;
  cfg.scheme.scheme = Scheme::kEcmp;
  cfg.seed = seed;
  cfg.maxDuration = seconds(10);
  cfg.audit = ExperimentConfig::Audit::kOn;
  cfg.app.queries = queries;
  cfg.app.fanOut = 4;
  cfg.app.concurrency = 2;
  cfg.app.placement = Placement::kSpread;
  cfg.app.responseBytes = 16 * kKB;
  cfg.app.slo = milliseconds(10);
  return cfg;
}

TEST(Service, ClosedLoopCompletesEveryQuery) {
  auto cfg = appConfig(12);
  const auto res = harness::runExperiment(cfg);
  EXPECT_EQ(res.appQueriesLaunched, 12);
  EXPECT_EQ(res.appQueriesCompleted, 12);
  EXPECT_EQ(res.appQctSeconds.count(), 12u);
  EXPECT_EQ(res.auditViolations, 0u);
  // No retries on a healthy fabric: exactly request+response per slot.
  EXPECT_EQ(res.appRetries, 0u);
  EXPECT_EQ(res.appRpcFlows, 12u * 4u * 2u);
}

TEST(Service, ClosedLoopRespectsConcurrencyBound) {
  auto cfg = appConfig(16);
  cfg.app.concurrency = 2;
  QueryProbe probe;
  harness::runExperiment(cfg, {.queries = &probe});

  // Reconstruct in-flight concurrency from the per-query ledger: at any
  // query's start, at most `concurrency` queries (itself included) may be
  // in [start, start+qct).
  const auto recs = probe.sortedRecords();
  ASSERT_EQ(recs.size(), 16u);
  for (const auto* a : recs) {
    int inFlight = 0;
    for (const auto* b : recs) {
      if (b->start <= a->start && a->start < b->start + b->qct) ++inFlight;
    }
    EXPECT_LE(inFlight, 2) << "query " << a->id;
  }
}

TEST(Service, PoissonArrivalsMatchConfiguredQps) {
  auto cfg = appConfig(200, /*seed=*/9);
  cfg.app.arrival = Arrival::kPoisson;
  cfg.app.qps = 20000.0;
  QueryProbe probe;
  const auto res = harness::runExperiment(cfg, {.queries = &probe});
  EXPECT_EQ(res.appQueriesLaunched, 200);

  const auto recs = probe.sortedRecords();
  ASSERT_EQ(recs.size(), 200u);
  SimTime last;
  for (const auto* r : recs) {
    EXPECT_GE(r->start, last);  // arrivals in id order, nondecreasing
    last = r->start;
  }
  // Mean inter-arrival ~ 1/qps = 50 us; 200 samples keep the estimator
  // within ~20 % with this seed.
  const double meanGapSec = toSeconds(recs.back()->start) / 200.0;
  EXPECT_NEAR(meanGapSec, 1.0 / 20000.0, 0.2 / 20000.0);
}

TEST(Service, PoissonArrivalPastTheClockNeverLaunches) {
  // A mean gap of 10^300 s lies past the clock: no query may wrap into
  // the past and launch at once.
  auto cfg = appConfig(5);
  cfg.app.arrival = Arrival::kPoisson;
  cfg.app.qps = 1e-300;
  const auto res = harness::runExperiment(cfg);
  EXPECT_EQ(res.appQueriesLaunched, 0);
  EXPECT_EQ(res.appQueriesCompleted, 0);
  EXPECT_EQ(res.appRpcFlows, 0u);
}

TEST(Service, DuplicateKnobIssuesOneDuplicatePerShortSlot) {
  auto cfg = appConfig(6);
  cfg.app.duplicateThreshold = 64 * kKB;  // responses (16 KB) qualify
  QueryProbe probe;
  const auto res = harness::runExperiment(cfg, {.queries = &probe});
  EXPECT_EQ(res.appQueriesCompleted, 6);
  EXPECT_EQ(res.appDuplicates, 6u * 4u);  // one per slot
  for (const auto* r : probe.sortedRecords()) {
    EXPECT_EQ(r->duplicates, 4);
    // Both requests per slot launch up front; responses land first-wins,
    // so at completion the loser's response may not have launched yet.
    EXPECT_GE(r->flowsLaunched, 4 * 3);
    EXPECT_LE(r->flowsLaunched, 4 * 4);
  }

  // Threshold at/below the response size disables duplication.
  auto off = appConfig(6);
  off.app.duplicateThreshold = 16 * kKB;
  EXPECT_EQ(harness::runExperiment(off).appDuplicates, 0u);
}

TEST(Service, WorkersNeverIncludeTheAggregator) {
  for (const auto placement : {Placement::kSpread, Placement::kRandom}) {
    auto cfg = appConfig(8);
    cfg.app.placement = placement;
    QueryProbe probe;
    harness::runExperiment(cfg, {.queries = &probe});
    for (const auto* r : probe.sortedRecords()) {
      ASSERT_GE(r->slowestWorker, 0);
      EXPECT_NE(r->slowestWorker, r->aggregator) << "query " << r->id;
    }
  }
}

TEST(Service, FanOutWiderThanFabricRepeatsWorkers) {
  // 8 hosts => 7 distinct workers; fanOut 10 forces repeats (the app-layer
  // analogue of incast round-robin past the host count) and every slot
  // must still complete.
  auto cfg = appConfig(5);
  cfg.app.fanOut = 10;
  cfg.app.placement = Placement::kRandom;
  const auto res = harness::runExperiment(cfg);
  EXPECT_EQ(res.appQueriesCompleted, 5);
  EXPECT_EQ(res.appRpcFlows, 5u * 10u * 2u);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(Service, DeterministicLedgerForSameSeed) {
  QueryProbe a, b;
  harness::runExperiment(appConfig(10, /*seed=*/21), {.queries = &a});
  harness::runExperiment(appConfig(10, /*seed=*/21), {.queries = &b});
  EXPECT_EQ(a.toNdjson({}), b.toNdjson({}));

  QueryProbe c;
  harness::runExperiment(appConfig(10, /*seed=*/22), {.queries = &c});
  EXPECT_NE(a.toNdjson({}), c.toNdjson({}));  // the seed actually matters
}

TEST(Service, CoexistsWithStaticFlowWorkload) {
  auto cfg = appConfig(8);
  // A static foreground mix with deliberately high flow ids: the app's
  // FlowFactory must mint ids past them (no collisions => clean audit and
  // full completion on both workloads).
  for (int i = 0; i < 6; ++i) {
    transport::FlowSpec f;
    f.id = 100 + static_cast<FlowId>(i);
    f.src = static_cast<net::HostId>(i % 4);
    f.dst = static_cast<net::HostId>(4 + i % 4);
    f.size = 50 * kKB;
    f.start = microseconds(10.0 * i);
    cfg.flows.push_back(f);
  }
  const auto res = harness::runExperiment(cfg);
  EXPECT_EQ(res.appQueriesCompleted, 8);
  EXPECT_EQ(res.ledger.size(), 6u);  // static flows tracked separately
  EXPECT_EQ(res.auditViolations, 0u);
}

/// What an app-only run assembled by hand (the harness's wiring, minus
/// the harness, so the test can reach the service's endpoint pool) leaves.
struct AssembledRun {
  std::string queriesNdjson;
  std::uint64_t flowsMinted = 0;
  /// Flows each query had launched when it finished, summed.
  std::uint64_t flowsAtFinish = 0;
  std::uint64_t reuses = 0;
  std::size_t pairs = 0;
  std::uint64_t events = 0;
  std::uint64_t orphans = 0;
};

/// With `keepPairs`, the pool reuses no pair.
AssembledRun runAssembled(const ExperimentConfig& cfg, bool keepPairs) {
  sim::Simulator simr;
  net::LeafSpineTopology topo(simr, cfg.topo, [](net::Switch&, int leaf) {
    return std::make_unique<lb::Ecmp>(static_cast<std::uint64_t>(leaf) + 1);
  });
  Service service(simr, topo, cfg.app, cfg.tcp, cfg.seed, /*firstFlowId=*/1);
  QueryProbe probe;
  service.setQueryProbe(&probe);
  if (keepPairs) service.endpoints().keepPairs();
  service.start();
  auto& sched = simr.scheduler();
  while (!service.done() && !sched.empty()) {
    if (!sched.step(cfg.maxDuration)) break;
  }
  service.finalize(simr.now());

  AssembledRun run;
  run.queriesNdjson = probe.toNdjson({});
  run.flowsMinted = service.flowsCreated();
  for (const QueryRecord* r : probe.sortedRecords()) {
    run.flowsAtFinish += static_cast<std::uint64_t>(r->flowsLaunched);
  }
  run.reuses = service.endpoints().reuses();
  run.pairs = service.endpoints().pairs();
  run.events = sched.executedEvents();
  for (int h = 0; h < topo.numHosts(); ++h) {
    run.orphans += topo.host(h).orphanPackets();
  }
  return run;
}

TEST(Service, ReusedEndpointsLeaveTheQueryLedgerByteIdentical) {
  // Duplicates for every slot, retries every 300 us and a 200 us mean
  // service time: losing attempts land after their query has finished,
  // and their responses launch from the finished query's slots.
  auto cfg = appConfig(40, /*seed=*/5);
  cfg.app.duplicateThreshold = 64 * kKB;
  cfg.app.timeout = microseconds(300);
  cfg.app.maxRetries = 2;
  cfg.app.serviceTime = microseconds(200);

  const AssembledRun pooled = runAssembled(cfg, false);
  const AssembledRun kept = runAssembled(cfg, true);

  EXPECT_GT(pooled.flowsMinted, pooled.flowsAtFinish);  // late launches
  EXPECT_GT(pooled.reuses, 0u);
  EXPECT_LT(pooled.pairs, kept.pairs);
  EXPECT_EQ(kept.reuses, 0u);
  EXPECT_EQ(kept.pairs, kept.flowsMinted);
  EXPECT_EQ(pooled.queriesNdjson, kept.queriesNdjson);
  EXPECT_EQ(pooled.flowsMinted, kept.flowsMinted);
  EXPECT_EQ(pooled.events, kept.events);
  EXPECT_EQ(pooled.orphans, 0u);
  EXPECT_EQ(kept.orphans, 0u);
}

TEST(Service, SummaryKeysOnlyWhenAppEnabled) {
  auto cfg = appConfig(5);
  const auto res = harness::runExperiment(cfg);
  const auto summary = harness::summarizeExperiment(cfg, res);
  ASSERT_NE(summary.value("app.queries"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.value("app.queries"), 5.0);
  EXPECT_NE(summary.value("app.qct_p99_ms"), nullptr);
  EXPECT_NE(summary.value("app.slo_miss_ratio"), nullptr);

  // App disabled: not a single app.* key may leak into the summary
  // (pre-app sweep outputs must stay byte-identical).
  ExperimentConfig off;
  off.topo.numLeaves = 2;
  off.topo.numSpines = 2;
  off.topo.hostsPerLeaf = 2;
  transport::FlowSpec f;
  f.id = 1;
  f.src = 0;
  f.dst = 2;
  f.size = 20 * kKB;
  off.flows.push_back(f);
  const auto resOff = harness::runExperiment(off);
  const auto summaryOff = harness::summarizeExperiment(off, resOff);
  for (const auto& [key, value] : summaryOff.values()) {
    EXPECT_NE(key.rfind("app.", 0), 0u) << "leaked key " << key;
  }
}

}  // namespace
}  // namespace tlbsim::app
