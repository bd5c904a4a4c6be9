// Figure 15: switch overhead of each scheme.
//
// The paper measures CPU and memory utilization of the BMv2 leaf switch.
// Our substrate is a simulator, so the equivalent quantity is the cost a
// scheme adds to the switch per packet and the per-switch state it keeps:
//   (a) per-packet forwarding-decision latency (google-benchmark),
//       plus TLB's periodic control-loop tick,
//   (b) per-switch state footprint (tracked flow entries x entry size).
//
// Expected shape (paper): ECMP/RPS/Presto are cheapest; TLB's calculator
// adds only a small constant cost per packet and a tiny periodic tick, and
// memory stays negligible (one small entry per live flow).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/tlb.hpp"
#include "harness/scheme.hpp"
#include "lb/ecmp.hpp"
#include "lb/letflow.hpp"
#include "lb/presto.hpp"
#include "net/leaf_spine.hpp"
#include "net/switch.hpp"
#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"

using namespace tlbsim;

namespace {

/// 1 Gbps uplinks with short queues. The view carries a rate, as every
/// view a switch builds does, so TLB's waits are seconds like its q_th.
net::UplinkView makeView(int n) {
  net::UplinkView v;
  for (int i = 0; i < n; ++i) {
    v.push_back(
        net::PortView{i, ByteCount::fromBytes(i % 7) * 1500, 1e9, 0.0});
  }
  return v;
}

net::Packet dataPacket(FlowId flow) {
  net::Packet p;
  p.flow = flow;
  p.type = net::PacketType::kData;
  p.payload = 1460_B;
  p.size = 1500_B;
  return p;
}

void runSelector(benchmark::State& state, harness::Scheme scheme) {
  harness::SchemeConfig cfg;
  cfg.scheme = scheme;
  cfg.numPaths = 15;
  auto sel = harness::makeSelector(cfg, /*salt=*/7);
  const auto view = makeView(15);
  // A working set of 64 concurrent flows, round-robin.
  FlowId flow = 0;
  for (auto _ : state) {
    flow = (flow + 1) % 64;
    benchmark::DoNotOptimize(sel->selectUplink(dataPacket(flow), view));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_Ecmp(benchmark::State& s) { runSelector(s, harness::Scheme::kEcmp); }
void BM_Wcmp(benchmark::State& s) { runSelector(s, harness::Scheme::kWcmp); }
void BM_Rps(benchmark::State& s) { runSelector(s, harness::Scheme::kRps); }
void BM_RoundRobin(benchmark::State& s) {
  runSelector(s, harness::Scheme::kRoundRobin);
}
void BM_Drill(benchmark::State& s) { runSelector(s, harness::Scheme::kDrill); }
void BM_Presto(benchmark::State& s) {
  runSelector(s, harness::Scheme::kPresto);
}
void BM_LetFlow(benchmark::State& s) {
  runSelector(s, harness::Scheme::kLetFlow);
}
void BM_Conga(benchmark::State& s) { runSelector(s, harness::Scheme::kConga); }
void BM_Hermes(benchmark::State& s) {
  runSelector(s, harness::Scheme::kHermes);
}
void BM_Tlb(benchmark::State& s) { runSelector(s, harness::Scheme::kTlb); }

BENCHMARK(BM_Ecmp);
BENCHMARK(BM_Wcmp);
BENCHMARK(BM_Rps);
BENCHMARK(BM_RoundRobin);
BENCHMARK(BM_Drill);
BENCHMARK(BM_Presto);
BENCHMARK(BM_LetFlow);
BENCHMARK(BM_Conga);
BENCHMARK(BM_Hermes);
BENCHMARK(BM_Tlb);

/// TLB's 500 us control tick with a realistically sized flow table.
void BM_TlbControlTick(benchmark::State& state) {
  core::TlbConfig cfg;
  core::Tlb tlb(cfg, 15, 7);
  const auto view = makeView(15);
  for (FlowId f = 0; f < 200; ++f) {
    net::Packet syn = dataPacket(f);
    syn.type = net::PacketType::kSyn;
    syn.payload = 0_B;
    tlb.selectUplink(syn, view);
  }
  for (auto _ : state) {
    tlb.controlTick();
  }
}
BENCHMARK(BM_TlbControlTick);

/// What the switch's kept uplink view costs the data path: one packet
/// through an uplink (enqueue, dequeue into serialization, its event) on
/// a 15-uplink switch whose view keeps the link's entry current, against
/// the same hop on a switch whose view was never built (no entry to
/// keep). The difference is what the kept view costs a packet: two entry
/// updates, where rebuilding the view for a decision reads 15 uplinks.
void runUplinkHop(benchmark::State& state, bool keptEntry) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "bench");
  std::vector<int> group;
  for (int i = 0; i < 15; ++i) {
    group.push_back(sw.addPort(std::make_unique<net::Link>(
        simr, store, gbps(1), microseconds(1), net::QueueConfig{})));
  }
  sw.setUplinkGroup(std::move(group));
  if (keptEntry) benchmark::DoNotOptimize(sw.uplinkView().data());
  net::Link& link = sw.port(0);
  const net::Packet pkt = dataPacket(1);
  for (auto _ : state) {
    link.send(pkt);
    simr.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
void BM_UplinkHopKeptEntry(benchmark::State& s) { runUplinkHop(s, true); }
void BM_UplinkHopNoEntry(benchmark::State& s) { runUplinkHop(s, false); }
BENCHMARK(BM_UplinkHopKeptEntry);
BENCHMARK(BM_UplinkHopNoEntry);

/// One packet from host 0's NIC to host 1 across a 2x2 leaf-spine: four
/// hops (host uplink, leaf uplink, spine downlink, leaf downlink), each a
/// queue, a serialization and its event, with an ECMP decision at the leaf
/// and two forwards across a switch, which BM_UplinkHop* never makes.
/// `per_hop` is the time per hop.
void BM_FabricHop(benchmark::State& state) {
  sim::Simulator simr;
  net::LeafSpineConfig cfg;
  cfg.numLeaves = 2;
  cfg.numSpines = 2;
  cfg.hostsPerLeaf = 1;
  net::LeafSpineTopology topo(simr, cfg, [](net::Switch&, int leaf) {
    return std::make_unique<lb::Ecmp>(static_cast<std::uint64_t>(leaf));
  });
  net::Host& src = topo.host(0);
  net::Packet pkt = dataPacket(1);
  pkt.src = 0;
  pkt.dst = 1;
  for (auto _ : state) {
    src.send(pkt);
    benchmark::DoNotOptimize(simr.run());
  }
  using benchmark::Counter;
  state.counters["per_hop"] =
      Counter(4, Counter::kIsIterationInvariantRate | Counter::kInvert);
}
BENCHMARK(BM_FabricHop);

/// TLB decision with the metrics registry (its q_th series) and a trace
/// installed, for comparison against BM_Tlb (observability uninstalled =
/// null-pointer branches only; the decision counts are plain integers
/// either way).
void BM_TlbObsOn(benchmark::State& state) {
  core::TlbConfig cfg;
  core::Tlb tlb(cfg, 15, 7);
  obs::MetricsRegistry metrics;
  obs::EventTrace trace;
  tlb.installObs(&metrics, &trace, "bench");
  const auto view = makeView(15);
  FlowId flow = 0;
  for (auto _ : state) {
    flow = (flow + 1) % 64;
    benchmark::DoNotOptimize(tlb.selectUplink(dataPacket(flow), view));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TlbObsOn);

/// TLB decision with a FlowProbe installed on the selector, for comparison
/// against BM_Tlb (probe uninstalled = one null-pointer branch per site).
void BM_TlbFlowProbeOn(benchmark::State& state) {
  core::TlbConfig cfg;
  core::Tlb tlb(cfg, 15, 7);
  obs::FlowProbe probe;
  tlb.setFlowProbe(&probe);
  for (FlowId f = 0; f < 64; ++f) {
    // tlbsim-lint: allow(flowprobe-mutation)
    probe.declareFlow(f, 0, 1, 1 * kMB, 0_ns, /*isShort=*/false);
  }
  const auto view = makeView(15);
  FlowId flow = 0;
  for (auto _ : state) {
    flow = (flow + 1) % 64;
    benchmark::DoNotOptimize(tlb.selectUplink(dataPacket(flow), view));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TlbFlowProbeOn);

/// End-to-end measurement of the observability tax: the same basic-setup
/// TLB experiment, run through the sweep engine three ways — sinks off
/// (null-pointer branches only), per-run metrics on, per-run FlowProbe
/// on — compared in wall-clock nanoseconds per executed simulator event,
/// plus an app-layer pair (same RPC workload with the QueryProbe off/on).
/// The best-of-seeds value on each side damps frequency scaling and
/// scheduling noise. Written to BENCH_obs_overhead.json so the cost is
/// tracked over time; the flows and queries rows are the "no-probe run
/// unchanged" acceptance checks for the two telemetry subsystems.
void writeObsOverheadJson(const bench::BenchArgs& args, const char* path) {
  runner::SweepSpec spec;
  spec.schemes = {harness::Scheme::kTlb};
  spec.seeds = bench::seedAxis(args.seed, 3);
  spec.sweepSeed = args.seed;

  runner::SweepScenario scenario;
  scenario.base = [](const runner::SweepPoint& pt) {
    return bench::basicSetup(pt.scheme);
  };
  scenario.workload = [](harness::ExperimentConfig& cfg,
                         const runner::SweepPoint&) {
    bench::addBasicMix(cfg, /*numShort=*/50, /*numLong=*/2);
  };

  // Interleave repeated passes over the modes so slow machine-wide drift
  // (thermal throttling, co-tenants) hits every mode, not just the later
  // ones; best-of-all-passes per mode then compares like with like.
  constexpr int kPasses = 3;

  enum Mode { kOff = 0, kMetrics = 1, kFlows = 2 };
  double best[3] = {1e18, 1e18, 1e18};
  std::uint64_t events = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Mode mode : {kOff, kMetrics, kFlows}) {
      runner::RunnerOptions ropt;
      ropt.jobs = 1;  // timing measurement: no co-running workers
      ropt.collectMetrics = mode == kMetrics;
      ropt.collectFlows = mode == kFlows;
      const runner::SweepReport report =
          runner::runSweep(spec, scenario, ropt);
      for (const auto& run : report.runs) {
        if (run.result.executedEvents == 0) continue;
        const double ns = run.wallSeconds * 1e9 /
                          static_cast<double>(run.result.executedEvents);
        best[mode] = std::min(best[mode], ns);
        events = run.result.executedEvents;
      }
    }
  }

  // App-layer pair: a closed-loop partition-aggregate run with the
  // QueryProbe off vs on (same config, same seed axis).
  runner::SweepScenario appScenario;
  appScenario.base = [](const runner::SweepPoint& pt) {
    auto cfg = bench::basicSetup(pt.scheme);
    cfg.app.queries = 40;
    cfg.app.concurrency = 4;
    cfg.app.placement = app::Placement::kSpread;
    return cfg;
  };
  double bestApp[2] = {1e18, 1e18};
  std::uint64_t appEvents = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const bool probeOn : {false, true}) {
      runner::RunnerOptions ropt;
      ropt.jobs = 1;
      ropt.collectQueries = probeOn;
      const runner::SweepReport report =
          runner::runSweep(spec, appScenario, ropt);
      for (const auto& run : report.runs) {
        if (run.result.executedEvents == 0) continue;
        const double ns = run.wallSeconds * 1e9 /
                          static_cast<double>(run.result.executedEvents);
        bestApp[probeOn ? 1 : 0] = std::min(bestApp[probeOn ? 1 : 0], ns);
        appEvents = run.result.executedEvents;
      }
    }
  }

  obs::RunSummary run;
  run.setMeta("figure", "obs_overhead");
  run.setMeta("workload", "basic_setup_tlb_50short_2long");
  run.set("events_per_run", static_cast<double>(events));
  run.set("ns_per_event_obs_off", best[kOff]);
  run.set("ns_per_event_obs_on", best[kMetrics]);
  run.set("overhead_pct",
          (best[kMetrics] - best[kOff]) / best[kOff] * 100.0);
  run.set("ns_per_event_flows_on", best[kFlows]);
  run.set("flows_overhead_pct",
          (best[kFlows] - best[kOff]) / best[kOff] * 100.0);
  run.set("app_events_per_run", static_cast<double>(appEvents));
  run.set("ns_per_event_queries_off", bestApp[0]);
  run.set("ns_per_event_queries_on", bestApp[1]);
  run.set("queries_overhead_pct",
          (bestApp[1] - bestApp[0]) / bestApp[0] * 100.0);
  if (run.writeJsonFile(path)) {
    std::printf("\n== observability overhead ==\n%s", run.toJson().c_str());
    std::printf("written to %s\n", path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path);
  }
}

void printStateFootprint() {
  std::printf("\n== Fig 15(b): per-switch state footprint ==\n");
  std::printf("%-10s %-40s\n", "scheme", "state per switch");
  std::printf("%-10s %-40s\n", "ECMP", "none (stateless hash)");
  std::printf("%-10s %-40s\n", "RPS", "RNG state only (32 B)");
  std::printf("%-10s %-40s\n", "DRILL", "RNG + 1 remembered port (~40 B)");
  std::printf("%-10s bytes/flow=%zu (byte counter + cell index)\n", "Presto",
              sizeof(ByteCount) * 2 + sizeof(FlowId));
  std::printf("%-10s bytes/flow=%zu (port + last-seen timestamp)\n",
              "LetFlow", sizeof(int) + sizeof(SimTime) + sizeof(FlowId));
  std::printf("%-10s bytes/flow=%zu (FlowEntry) + calculator constants\n",
              "TLB", sizeof(core::FlowEntry) + sizeof(FlowId));
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Figure 15: switch overhead (per-packet decision cost)\n");
  // google-benchmark consumes its --benchmark_* flags first; whatever
  // remains must be the shared bench vocabulary.
  benchmark::Initialize(&argc, argv);
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printStateFootprint();
  writeObsOverheadJson(args, args.jsonPath.empty()
                                 ? "BENCH_obs_overhead.json"
                                 : args.jsonPath.c_str());
  return 0;
}
