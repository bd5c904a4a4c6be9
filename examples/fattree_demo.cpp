// Domain example: TLB on a 3-tier k=4 fat-tree.
//
// Setting ExperimentConfig::fatTree runs the harness the paper's
// leaf-spine figures use on a fat-tree instead: every edge and aggregation
// switch runs its own selector (two stacked load-balancing tiers), and
// TLB's physical inputs (path width, rate, RTT, buffer) come from the
// fat-tree config.
//
//   $ ./fattree_demo
#include <cstdio>

#include "harness/experiment.hpp"
#include "stats/report.hpp"
#include "util/rng.hpp"
#include "workload/flow_size_dist.hpp"

using namespace tlbsim;

namespace {

harness::ExperimentConfig makeConfig(harness::Scheme scheme,
                                     std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  net::FatTreeConfig& topo = cfg.fatTree.emplace();
  topo.k = 4;  // 16 hosts, 4 pods, 4 cores
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;

  // Workload: 40 short (<100 KB) + 4 long (5 MB) flows between random
  // cross-pod host pairs.
  const int hostsPerPod = topo.k * topo.k / 4;
  Rng rng(seed);
  workload::FlowSizeDistribution shortDist =
      workload::FlowSizeDistribution::uniform(20 * kKB, 90 * kKB);
  FlowId id = 1;
  for (int i = 0; i < 4; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i);      // pod 0
    f.dst = static_cast<net::HostId>(8 + i);  // pod 2
    f.size = 5 * kMB;
    cfg.flows.push_back(f);
  }
  SimTime t;
  for (int i = 0; i < 40; ++i) {
    t += microseconds(rng.uniform(50, 350));
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(rng.uniformInt(16));
    do {
      f.dst = static_cast<net::HostId>(rng.uniformInt(16));
    } while (f.dst / hostsPerPod == f.src / hostsPerPod);
    f.size = shortDist.sample(rng);
    f.start = t;
    cfg.flows.push_back(f);
  }
  return cfg;
}

}  // namespace

int main() {
  std::printf("k=4 fat-tree (16 hosts, 2 LB tiers): TLB vs baselines\n");

  stats::Table t({"scheme", "completed", "short AFCT (ms)",
                  "long goodput (Mbps)"});
  for (const auto scheme :
       {harness::Scheme::kEcmp, harness::Scheme::kRps,
        harness::Scheme::kLetFlow, harness::Scheme::kConga,
        harness::Scheme::kTlb}) {
    double afct = 0.0, tput = 0.0;
    std::size_t done = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
      const auto res = harness::runExperiment(makeConfig(scheme, seed));
      afct += res.shortAfctSec() * 1e3;
      tput += res.longGoodputGbps() * 1e3;
      done += res.ledger.completedCount([](const auto&) { return true; });
    }
    t.addRow(harness::schemeName(scheme),
             {static_cast<double>(done), afct / 3.0, tput / 3.0}, 2);
  }
  t.print("cross-pod traffic, 3 seeds");
  std::printf(
      "\nNote: selectors run independently at the edge AND aggregation\n"
      "tiers; TLB's flow tables and granularity calculators are per-switch\n"
      "state, so the same code deploys to both tiers unchanged.\n");
  return 0;
}
