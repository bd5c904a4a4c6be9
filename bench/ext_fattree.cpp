// Extension experiment (beyond the paper): every scheme on a 3-tier k=4
// fat-tree, where load-balancing decisions stack at the edge AND
// aggregation tiers. The paper's evaluation is leaf-spine only; this
// checks that TLB's per-switch design composes across tiers. Each run is an
// Experiment on the fat-tree fabric, audited like any other in Debug.
#include <cstdio>

#include "bench_common.hpp"

using namespace tlbsim;

namespace {

harness::ExperimentConfig makeConfig(harness::Scheme scheme,
                                     std::uint64_t seed, bool full) {
  harness::ExperimentConfig cfg;
  cfg.fatTree.emplace().k = full ? 8 : 4;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(20);
  // Every run is audited over both decision tiers; a violation (an orphan
  // packet included) aborts the bench.
  cfg.audit = harness::ExperimentConfig::Audit::kOn;

  // Cross-pod heavy-tailed mix: long flows pod0 -> pod2, Poisson-ish
  // shorts between random cross-pod pairs.
  Rng rng(seed * 31 + 7);
  const int hosts = cfg.fatTree->numHosts();
  const int hostsPerPod = cfg.fatTree->k * cfg.fatTree->k / 4;
  FlowId id = 1;
  for (int i = 0; i < (full ? 16 : 4); ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i % hostsPerPod);
    f.dst = static_cast<net::HostId>(2 * hostsPerPod + i % hostsPerPod);
    f.size = 5 * kMB;
    cfg.flows.push_back(f);
  }
  SimTime t;
  for (int i = 0; i < (full ? 400 : 80); ++i) {
    t += microseconds(rng.uniform(30, 250));
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(rng.uniformInt(
        static_cast<std::uint64_t>(hosts)));
    do {
      f.dst = static_cast<net::HostId>(rng.uniformInt(
          static_cast<std::uint64_t>(hosts)));
    } while (f.dst / hostsPerPod == f.src / hostsPerPod);
    f.size = ByteCount::fromBytes(
        rng.uniformInt((10 * kKB).bytes(), (95 * kKB).bytes()));
    f.start = t;
    f.deadline = milliseconds(25);
    cfg.flows.push_back(f);
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::parseBenchArgs(argc, argv).full;
  std::printf("Extension: schemes on a k=%d fat-tree (2 LB tiers)\n",
              full ? 8 : 4);

  stats::Table t({"scheme", "short AFCT (ms)", "short p99 (ms)", "miss (%)",
                  "long goodput (Mbps)", "drops"});

  const harness::Scheme schemes[] = {
      harness::Scheme::kEcmp,    harness::Scheme::kRps,
      harness::Scheme::kPresto,  harness::Scheme::kLetFlow,
      harness::Scheme::kConga,   harness::Scheme::kHermes,
      harness::Scheme::kTlb};

  for (const auto scheme : schemes) {
    double afct = 0, p99 = 0, miss = 0, tput = 0, drops = 0;
    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    for (const std::uint64_t seed : seeds) {
      // Seeds 1-3 as given: runSweep would re-derive them and move the
      // table. tlbsim-lint: allow(bench-direct-experiment)
      const auto res = harness::runExperiment(makeConfig(scheme, seed, full));
      afct += res.shortAfctSec() * 1e3;
      p99 += res.shortP99Sec() * 1e3;
      miss += res.shortMissRatio() * 100.0;
      tput += res.longGoodputGbps() * 1e3;
      drops += static_cast<double>(res.totalDrops);
    }
    const double n = static_cast<double>(seeds.size());
    t.addRow(harness::schemeName(scheme),
             {afct / n, p99 / n, miss / n, tput / n, drops / n}, 2);
    std::fprintf(stderr, "  %s done\n", harness::schemeName(scheme));
  }

  t.print("fat-tree cross-pod mix (3 seeds)");
  std::printf(
      "\nTLB runs unchanged at both tiers; its per-switch flow tables and\n"
      "granularity calculators are independent, exactly like the paper's\n"
      "per-leaf deployment.\n");
  return 0;
}
