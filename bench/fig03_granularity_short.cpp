// Figure 3: impact of (non-adaptive) switching granularity on SHORT flows.
//
// Paper setup (Section 2.2): 15 equal-cost paths, 1 Gbps, 100 us RTT,
// 256-packet buffers, 100 short (<100 KB) + 5 long (>10 MB) DCTCP flows,
// flowlet timeout 150 us.
//
//   (a) CDF of queue length experienced by short-flow packets,
//   (b) ratio of TCP duplicate ACKs (reordering),
//   (c) CDF of short-flow FCT,
// each under flow-level, flowlet-level, and packet-level switching.
//
// Expected shape (paper): queue length grows with granularity; dup-ACKs
// explode at packet level; FCT tail grows with granularity, yet packet
// level does not win FCT outright because of reordering.
#include <cstdio>

#include "bench_common.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const bool full = bench::parseBenchArgs(argc, argv).full;
  const int numShort = full ? 100 : 100;  // paper scale is already small
  const int numLong = 5;

  std::printf("Figure 3: impact of switching granularity on short flows\n");
  std::printf("(flow-level / flowlet-level / packet-level, basic setup)\n");

  stats::Table cdfQ({"percentile", "flow-level qlen (pkts)",
                     "flowlet qlen (pkts)", "packet qlen (pkts)"});
  stats::Table dup({"scheme", "dup-ACK ratio (short flows)"});
  stats::Table cdfF({"percentile", "flow-level FCT (ms)", "flowlet FCT (ms)",
                     "packet FCT (ms)"});

  std::vector<harness::ExperimentResult> results;
  for (const auto& g : bench::kGranularities) {
    auto cfg = bench::basicSetup(g.scheme);
    bench::addBasicMix(cfg, numShort, numLong);
    // tlbsim-lint: allow(bench-direct-experiment)
    results.push_back(harness::runExperiment(cfg));
    dup.addRow(g.label, {results.back().shortDupAckRatioTotal()}, 4);
  }

  for (const double p : {25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    cdfQ.addRow(stats::fmt(p, 1),
                {results[0].shortQueueLenPkts.percentile(p),
                 results[1].shortQueueLenPkts.percentile(p),
                 results[2].shortQueueLenPkts.percentile(p)},
                1);
    cdfF.addRow(
        stats::fmt(p, 1),
        {results[0].ledger.fctPercentile(stats::FlowLedger::isShort, p) * 1e3,
         results[1].ledger.fctPercentile(stats::FlowLedger::isShort, p) * 1e3,
         results[2].ledger.fctPercentile(stats::FlowLedger::isShort, p) * 1e3},
        2);
  }

  cdfQ.print("Fig 3(a): queue length experienced by short-flow packets");
  dup.print("Fig 3(b): TCP duplicate-ACK ratio of short flows");
  cdfF.print("Fig 3(c): short-flow FCT distribution");
  return 0;
}
