// Figure 4: impact of (non-adaptive) switching granularity on LONG flows.
//
// Same basic setup as Fig. 3.
//   (a) link utilization over time (sender-leaf uplinks),
//   (b) out-of-order packet ratio of long flows,
//   (c) mean long-flow throughput.
//
// Expected shape (paper): flow-level leaves links underutilized; packet
// level reorders heavily; throughput peaks below ~35% of capacity for all
// fixed granularities (the dilemma TLB resolves).
#include <cstdio>

#include "bench_common.hpp"

using namespace tlbsim;

int main(int argc, char** argv) {
  (void)bench::parseBenchArgs(argc, argv);

  std::printf("Figure 4: impact of switching granularity on long flows\n");

  stats::Table util({"time (ms)", "flow-level util", "flowlet util",
                     "packet util"});
  stats::Table ooo({"scheme", "long-flow out-of-order ratio"});
  stats::Table tput({"scheme", "mean long-flow throughput (Mbps)",
                     "fraction of capacity"});

  // (b)/(c): averaged over seeds so path-collision luck (the whole point of
  // the flow-level pathology) is represented, not a single draw.
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<harness::ExperimentResult> results;
  for (const auto& g : bench::kGranularities) {
    double oooSum = 0.0;
    double tputSum = 0.0;
    for (const std::uint64_t seed : seeds) {
      auto cfg = bench::basicSetup(g.scheme, 256, seed);
      bench::addBasicMix(cfg);
      if (seed == seeds.front()) {
        cfg.sampleInterval = milliseconds(1);
        // tlbsim-lint: allow(bench-direct-experiment)
        results.push_back(harness::runExperiment(cfg));
        oooSum += results.back().longOooRatioTotal();
        tputSum += results.back().longGoodputGbps();
      } else {
        // tlbsim-lint: allow(bench-direct-experiment)
        const auto r = harness::runExperiment(cfg);
        oooSum += r.longOooRatioTotal();
        tputSum += r.longGoodputGbps();
      }
    }
    const double n = static_cast<double>(seeds.size());
    ooo.addRow(g.label, {oooSum / n}, 4);
    tput.addRow(g.label, {tputSum / n * 1e3, tputSum / n}, 3);
  }

  // Utilization series, downsampled to a common grid.
  const auto& t0 = results[0].fabricUtilization.points();
  for (std::size_t i = 0; i < t0.size(); i += 5) {
    std::vector<double> row{results[0].fabricUtilization.points()[i].second};
    for (std::size_t s = 1; s < results.size(); ++s) {
      const auto& pts = results[s].fabricUtilization.points();
      row.push_back(i < pts.size() ? pts[i].second : 0.0);
    }
    util.addRow(stats::fmt(toMilliseconds(t0[i].first), 1), row, 3);
  }

  util.print("Fig 4(a): fabric link utilization over time");
  ooo.print("Fig 4(b): long-flow reordering");
  tput.print("Fig 4(c): long-flow throughput");
  return 0;
}
