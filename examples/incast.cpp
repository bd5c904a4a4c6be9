// Domain example: incast (partition/aggregate), via the app layer.
//
// N workers answer an aggregator's request simultaneously. The bottleneck
// is the aggregator's access downlink, which no fabric load balancer
// controls — but the fabric still decides how the synchronized burst
// traverses the spine layer, and schemes differ in how much reordering
// and transient queueing they add on top of the unavoidable incast queue.
//
// This example runs a closed-loop app::Service (repeated queries, QCT
// distribution) instead of a single hand-built burst.
//
//   $ ./incast [fanIn]
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "stats/report.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const int fanIn = argc > 1 ? std::atoi(argv[1]) : 24;
  std::printf("incast: queries of %d synchronized 64 KB responses\n", fanIn);

  stats::Table t({"scheme", "QCT p50 (ms)", "QCT p99 (ms)", "SLO miss %",
                  "retries", "drops"});

  for (const auto scheme :
       {harness::Scheme::kEcmp, harness::Scheme::kRps,
        harness::Scheme::kPresto, harness::Scheme::kLetFlow,
        harness::Scheme::kConga, harness::Scheme::kTlb}) {
    harness::ExperimentConfig cfg;
    cfg.topo.numLeaves = 4;
    cfg.topo.numSpines = 4;
    cfg.topo.hostsPerLeaf = 8;
    cfg.topo.linkDelay = microseconds(12.5);
    cfg.topo.bufferPackets = 128;  // shallow buffer: incast's natural enemy
    cfg.topo.ecnThresholdPackets = 32;
    cfg.scheme.scheme = scheme;
    cfg.seed = 5;
    cfg.maxDuration = seconds(5);

    cfg.app.queries = 30;
    cfg.app.fanOut = fanIn;
    cfg.app.concurrency = 1;  // one query at a time: pure incast bursts
    cfg.app.aggregator = 0;
    cfg.app.placement = app::Placement::kRandom;
    cfg.app.responseBytes = 64 * kKB;
    cfg.app.slo = milliseconds(10);

    const auto res = harness::runExperiment(cfg);

    t.addRow(harness::schemeName(scheme),
             {res.appQctP50Sec() * 1e3, res.appQctP99Sec() * 1e3,
              res.appSloMissRatio() * 100.0,
              static_cast<double>(res.appRetries),
              static_cast<double>(res.totalDrops)},
             2);
  }

  t.print("incast query completion");
  std::printf(
      "\nThe aggregator's downlink dominates; good fabric schemes add no\n"
      "extra losses or reordering on top of it.\n");
  return 0;
}
