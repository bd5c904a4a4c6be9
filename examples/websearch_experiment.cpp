// Domain example: run the web-search workload of Section 6.2 with a chosen
// scheme and load, and print the metrics the paper reports.
//
//   $ ./websearch_experiment [scheme] [load] [flows] [seed]
//   $ ./websearch_experiment tlb 0.6 300 7
//
// Schemes: any name `tlbsim_cli --list-schemes` prints (ecmp, rps, drill,
// presto, letflow, tlb, ...).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "stats/report.hpp"
#include "workload/traffic_gen.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  const char* schemeArg = argc > 1 ? argv[1] : "tlb";
  const auto parsed = harness::parseScheme(schemeArg);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "unknown scheme '%s' (tlbsim_cli --list-schemes)\n",
                 schemeArg);
    return 1;
  }
  const harness::Scheme scheme = *parsed;
  const double load = argc > 2 ? std::atof(argv[2]) : 0.6;
  const int flowCount = argc > 3 ? std::atoi(argv[3]) : 300;
  const std::uint64_t seed =
      argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 11;

  std::printf("web-search workload: scheme=%s load=%.2f flows=%d\n",
              harness::schemeName(scheme), load, flowCount);

  harness::ExperimentConfig cfg;
  // 2:1 oversubscribed at the leaf, like production ToRs — the leaf-uplink
  // contention is what load balancing schemes differ on.
  cfg.topo.numLeaves = 4;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 8;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 256;
  cfg.topo.ecnThresholdPackets = 65;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(60);

  Rng rng(cfg.seed);
  std::string err;
  auto flows = workload::namedWorkload("websearch", cfg.topo, load, flowCount,
                                       rng, &err);
  if (!flows.has_value()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  cfg.flows = std::move(*flows);

  const auto res = harness::runExperiment(cfg);

  stats::Table t({"metric", "value"});
  t.addRow("flows completed",
           {static_cast<double>(
               res.ledger.completedCount([](const auto&) { return true; }))},
           0);
  t.addRow("simulated time (ms)", {toMilliseconds(res.endTime)}, 1);
  t.addRow("short AFCT (ms)", {res.shortAfctSec() * 1e3}, 3);
  t.addRow("short p99 FCT (ms)", {res.shortP99Sec() * 1e3}, 3);
  t.addRow("deadline miss (%)", {res.shortMissRatio() * 100.0}, 2);
  t.addRow("long goodput (Mbps)", {res.longGoodputGbps() * 1e3}, 1);
  t.addRow("short dup-ACK ratio", {res.shortDupAckRatioTotal()}, 4);
  t.addRow("long out-of-order ratio", {res.longOooRatioTotal()}, 4);
  t.addRow("fabric drops", {static_cast<double>(res.totalDrops)}, 0);
  t.addRow("ECN marks", {static_cast<double>(res.totalEcnMarks)}, 0);
  double shortFr = 0, shortRto = 0, longFr = 0, longRto = 0;
  for (const auto& f : res.ledger.flows()) {
    if (stats::FlowLedger::isShort(f)) {
      shortFr += static_cast<double>(f.fastRetransmits);
      shortRto += static_cast<double>(f.timeouts);
    } else {
      longFr += static_cast<double>(f.fastRetransmits);
      longRto += static_cast<double>(f.timeouts);
    }
  }
  t.addRow("short fast-rtx / RTO", {shortFr, shortRto}, 0);
  t.addRow("long fast-rtx / RTO", {longFr, longRto}, 0);
  t.addRow("TLB long switches", {static_cast<double>(res.tlbLongSwitches)},
           0);
  t.print("results");
  return 0;
}
