// Shared scenario builders for the figure-reproduction benches.
//
// Each bench binary reproduces one figure of the paper and prints the same
// rows/series the figure plots. Default scales are reduced to finish on a
// single core; pass --full for the paper's scale (documented per bench).
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/report.hpp"
#include "util/parse.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::bench {

/// The flag vocabulary every bench binary shares. Benches that sweep
/// through the runner honor all four; single-run benches still reject
/// unknown flags instead of silently ignoring a typo.
struct BenchArgs {
  bool full = false;        ///< paper scale instead of the reduced default
  int jobs = 0;             ///< sweep worker threads; 0 = all cores
  std::uint64_t seed = 1;   ///< base seed (seed axes count up from it)
  std::string jsonPath;     ///< overrides the bench's default BENCH_*.json
  /// When non-empty, sweep benches arm the per-run FlowProbe and write
  /// every run's flow records here as NDJSON (analyze with tlbsim_flows).
  std::string flowsJsonPath;
};

/// Parse the shared bench flags. Unknown flags and malformed values are
/// fatal (exit 1); --help prints the vocabulary and exits 0.
inline BenchArgs parseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--full] [--jobs N] [--seed N] [--json PATH]\n"
                 "          [--flows-json PATH]\n"
                 "  --full       run at the paper's scale\n"
                 "  --jobs N     sweep worker threads (default: all cores)\n"
                 "  --seed N     base RNG seed (default 1)\n"
                 "  --json PATH  write results JSON here instead of the\n"
                 "               bench's default BENCH_*.json\n"
                 "  --flows-json PATH  write per-flow telemetry NDJSON\n"
                 "               (sweep benches; analyze with tlbsim_flows)\n",
                 argv[0]);
  };
  const auto next = [&](int* i, const char* flag) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag);
      std::exit(1);
    }
    return argv[++*i];
  };
  const auto parseCount = [](const char* flag, const char* v,
                             std::int64_t hi) {
    const std::optional<std::int64_t> n = util::parseInt(v);
    if (!n.has_value() || *n < 0 || *n > hi) {
      std::fprintf(stderr, "bad value '%s' for %s: must be in [0, %lld]\n",
                   v, flag, static_cast<long long>(hi));
      std::exit(1);
    }
    return *n;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      args.full = true;
    } else if (arg == "--jobs") {
      args.jobs = static_cast<int>(
          parseCount("--jobs", next(&i, "--jobs"), INT_MAX));
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          parseCount("--seed", next(&i, "--seed"), INT64_MAX));
    } else if (arg == "--json") {
      args.jsonPath = next(&i, "--json");
    } else if (arg == "--flows-json") {
      args.flowsJsonPath = next(&i, "--flows-json");
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(stderr);
      std::exit(1);
    }
  }
  return args;
}

/// `count` consecutive seeds starting at `base` (the repetition axis of a
/// sweep; --seed shifts the whole axis).
inline std::vector<std::uint64_t> seedAxis(std::uint64_t base, int count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    seeds.push_back(base + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

/// The paper's basic NS2 setup (Sections 2.2, 4.2, 6.1): 2 leaves joined by
/// 15 spines (15 equal-cost paths), 1 Gbps links, 100 us base RTT.
inline harness::ExperimentConfig basicSetup(harness::Scheme scheme,
                                            int bufferPackets = 256,
                                            std::uint64_t seed = 1) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 15;
  cfg.topo.hostsPerLeaf = 16;
  cfg.topo.linkDelay = microseconds(100.0 / 8.0);
  cfg.topo.bufferPackets = bufferPackets;
  cfg.topo.ecnThresholdPackets = 65;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(10);
  return cfg;
}

/// The paper's basic traffic mix: 100 short (<100 KB) + 5 long (10 MB).
inline void addBasicMix(harness::ExperimentConfig& cfg, int numShort = 100,
                        int numLong = 5) {
  workload::BasicMixConfig mix;
  mix.numShort = numShort;
  mix.numLong = numLong;
  mix.numHosts = cfg.topo.numHosts();
  mix.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  Rng rng(cfg.seed * 77 + 5);
  cfg.flows = workload::basicMixWorkload(mix, rng);
}

/// The Mininet testbed setup (Section 7): 10 equal-cost paths, 20 Mbps
/// links, 1 ms per-link delay, 256-packet buffers. At these rates the
/// default scale IS the paper's scale.
inline harness::ExperimentConfig testbedSetup(harness::Scheme scheme,
                                              std::uint64_t seed = 1) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 10;
  cfg.topo.hostsPerLeaf = 16;
  cfg.topo.hostLinkRate = mbps(20);
  cfg.topo.fabricLinkRate = mbps(20);
  cfg.topo.linkDelay = milliseconds(1);
  cfg.topo.bufferPackets = 256;
  // The Mininet/BMv2 testbed runs plain drop-tail queues (no RED/ECN
  // configuration in the paper's Section 7), so reordering and drops are
  // punished the way the testbed punishes them.
  cfg.topo.ecnThresholdPackets = 0;
  cfg.scheme.scheme = scheme;
  // Testbed control-loop constants (Section 7): 15 ms update interval and
  // flowlet timeout.
  cfg.scheme.flowletTimeout = milliseconds(15);
  cfg.scheme.tlb.updateInterval = milliseconds(15);
  cfg.scheme.tlb.idleTimeout = milliseconds(45);
  cfg.scheme.tlb.deadline = seconds(3);  // 25th pct of [2 s, 6 s]
  cfg.tcp.minRto = milliseconds(200);
  cfg.tcp.maxRto = seconds(2);
  // The 2019-era testbed kernel stack has no RACK-style reordering
  // tolerance; spurious fast retransmits cascade exactly as they did
  // there (see ablation_tcp_guard for the controlled comparison).
  cfg.tcp.holeRetransmitGuard = false;
  cfg.seed = seed;
  cfg.maxDuration = seconds(200);
  return cfg;
}

/// Testbed traffic mix (Section 7): short flows < 100 KB, long flows 5 MB,
/// deadlines in [2 s, 6 s].
inline void addTestbedMix(harness::ExperimentConfig& cfg, int numShort = 100,
                          int numLong = 4) {
  workload::BasicMixConfig mix;
  mix.numShort = numShort;
  mix.numLong = numLong;
  mix.numHosts = cfg.topo.numHosts();
  mix.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  mix.longSize = 5 * kMB;
  mix.deadlineMin = seconds(2);
  mix.deadlineMax = seconds(6);
  // Spread short arrivals so the aggregate short load matches the paper's
  // web-search-like burstiness at 20 Mbps.
  mix.shortInterArrival = milliseconds(50);
  Rng rng(cfg.seed * 131 + 3);
  cfg.flows = workload::basicMixWorkload(mix, rng);
}

/// Large-scale setup (Section 6.2): oversubscribed leaf-spine, 1 Gbps
/// links. The paper uses 8 ToR x 8 core with 256 hosts (4:1 oversubscribed
/// at the leaf — that contention is what differentiates the schemes);
/// the default here is a 4x4 fabric with 2:1 oversubscription so the sweep
/// finishes quickly, and --full restores the paper's 8x8x256 at 4:1.
inline harness::ExperimentConfig largeScaleSetup(harness::Scheme scheme,
                                                 bool full,
                                                 std::uint64_t seed = 1) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = full ? 8 : 4;
  cfg.topo.numSpines = full ? 8 : 4;
  cfg.topo.hostsPerLeaf = full ? 32 : 8;
  cfg.topo.linkDelay = microseconds(100.0 / 8.0);
  cfg.topo.bufferPackets = 256;
  cfg.topo.ecnThresholdPackets = 65;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(30);
  return cfg;
}

/// Poisson workload at `load` for the large-scale tests, with load
/// defined against the fabric bisection (workload::poissonConfigFor) and
/// the benches' own seeding.
inline void addPoissonWorkload(harness::ExperimentConfig& cfg, double load,
                               const workload::FlowSizeDistribution& dist,
                               int flowCount) {
  Rng rng(cfg.seed * 9176 + 11);
  cfg.flows = workload::poissonWorkload(
      workload::poissonConfigFor(cfg.topo, load, flowCount), dist, rng);
}

/// The granularity study of Section 2.2 (Figs. 3 and 4): one scheme per
/// fixed switching granularity, under the label the figures use.
struct Granularity {
  const char* label;
  harness::Scheme scheme;
};
inline constexpr Granularity kGranularities[] = {
    {"Flow-level", harness::Scheme::kFlowLevel},
    {"Flowlet-level", harness::Scheme::kLetFlow},
    {"Packet-level", harness::Scheme::kRps},
};

}  // namespace tlbsim::bench
