// Domain example: a closed-loop partition-aggregate service end to end.
//
// A web-search-style front end keeps 4 queries in flight; each query fans
// out 16 requests from its aggregator to workers spread across the other
// leaves, waits for every 32 KB response, then thinks for 100 us and asks
// again. The interesting output is not the mean — it is *which worker was
// slowest* and *why the tail queries missed their 10 ms budget*, which is
// exactly what app::QueryProbe records per query.
//
// Demonstrates the full app-layer surface: ExperimentConfig.app, a
// QueryProbe passed to the run as its sink, the per-query ledger
// (slowest-worker attribution, retry timeline), and NDJSON export for
// offline analysis.
//
//   $ ./partition_aggregate
#include <algorithm>
#include <cstdio>
#include <vector>

#include "app/query_probe.hpp"
#include "harness/experiment.hpp"
#include "stats/report.hpp"

using namespace tlbsim;

int main() {
  std::printf("partition-aggregate: 16-way fan-out, 10 ms SLO\n\n");

  stats::Table t({"scheme", "QCT p50 (ms)", "QCT p99 (ms)", "SLO miss %",
                  "retries"});

  // Keep one scheme's probe around for the per-query drill-down below.
  app::QueryProbe tlbProbe;

  for (const auto scheme : {harness::Scheme::kEcmp, harness::Scheme::kPresto,
                            harness::Scheme::kTlb}) {
    harness::ExperimentConfig cfg;
    cfg.scheme.scheme = scheme;
    cfg.seed = 11;
    cfg.maxDuration = seconds(5);

    cfg.app.queries = 80;
    cfg.app.fanOut = 16;
    cfg.app.arrival = app::Arrival::kClosedLoop;
    cfg.app.concurrency = 4;
    cfg.app.thinkTime = microseconds(100);
    cfg.app.placement = app::Placement::kSpread;
    cfg.app.responseBytes = 32 * kKB;
    cfg.app.slo = milliseconds(10);
    cfg.app.timeout = milliseconds(40);

    app::QueryProbe probe;
    const auto res = harness::runExperiment(cfg, {.queries = &probe});
    t.addRow(harness::schemeName(scheme),
             {res.appQctP50Sec() * 1e3, res.appQctP99Sec() * 1e3,
              res.appSloMissRatio() * 100.0,
              static_cast<double>(res.appRetries)},
             2);

    if (scheme == harness::Scheme::kTlb) tlbProbe = std::move(probe);
  }
  t.print("query completion by scheme");

  // --- drill into TLB's tail: who was the slowest worker? ---------------
  auto records = tlbProbe.sortedRecords();
  std::sort(records.begin(), records.end(),
            [](const app::QueryRecord* a, const app::QueryRecord* b) {
              return a->qct > b->qct;
            });

  std::printf("\nTLB's 5 slowest queries (slowest-worker attribution):\n");
  std::printf("  %5s %10s %8s %10s %8s\n", "query", "QCT (ms)", "miss",
              "worker", "wait(ms)");
  for (std::size_t i = 0; i < records.size() && i < 5; ++i) {
    const auto& r = *records[i];
    std::printf("  %5d %10.3f %8s %10d %8.3f\n", r.id,
                toMilliseconds(r.qct), r.sloMiss ? "MISS" : "ok",
                r.slowestWorker, toMilliseconds(r.slowestWorkerWait));
  }

  // The same ledger, machine-readable: one JSON line per query.
  const char* path = "partition_aggregate_queries.ndjson";
  if (tlbProbe.writeNdjsonFile(path, {{"scheme", "tlb"}, {"example",
                                                          "partition_aggregate"}})) {
    std::printf("\nper-query NDJSON written to %s (%zu queries)\n", path,
                tlbProbe.queryCount());
  }
  return 0;
}
