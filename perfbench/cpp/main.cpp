// tlbsim_perfbench: one benchmark repetition per process.
//
//   tlbsim_perfbench --workload NAME --seed N --mode untraced|traced|audit
//
//   untraced  one harness::Experiment::run() timed as run_s, with this
//             process's peak RSS; then kSetupReps timed set-ups (the
//             pre-loop part of a run, built and discarded) for setup_s.
//             The reference kernel (reference.hpp) runs just before and
//             just after the timed run, in this process, whose speed it
//             shares; run.py scales run_s and setup_s by its times
//             (ref_before_s, ref_after_s). It allocates from a private
//             mapping, and VmHWM is reset before the run, so the heap and
//             peak_rss_mb are the run's alone.
//   traced    the same run assembled from public pieces with per-layer
//             spans (see assembly.hpp); prints every per-layer metric.
//   audit     one untimed Experiment::run() with the invariant auditor on.
//
// Prints one flat JSON object on stdout. Exit code 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "assembly.hpp"
#include "reference.hpp"
#include "workloads.hpp"

using namespace tlbsim;
using perfbench::Clock;
using perfbench::secondsSince;

namespace {

using Fields = std::map<std::string, double>;

constexpr int kSetupReps = 15;  // set-ups timed per untraced repetition

/// VmHWM, this process image's peak RSS. Unlike getrusage's ru_maxrss it
/// starts afresh at exec, so a parent's footprint does not leak into it.
double peakRssMb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

/// Restarts VmHWM from the current RSS, so the peak that follows is the
/// run's own and not the reference kernel's.
void resetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double currentRssMb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// FNV-1a over the run summary's JSON, folded to 48 bits so the value is
/// exact as a JSON number.
double digest(const harness::ExperimentConfig& cfg,
              const harness::ExperimentResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : harness::summarizeExperiment(cfg, res).toJson()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return static_cast<double>((h ^ (h >> 48)) & 0xffffffffffffULL);
}

/// The simulated results a speed-only change must leave identical.
void addModel(Fields& out, const harness::ExperimentConfig& cfg,
              const harness::ExperimentResult& res) {
  out["ops"] = static_cast<double>(perfbench::operations(cfg));
  out["ops_failed"] =
      static_cast<double>(perfbench::failedOperations(cfg, res));
  out["model.short_afct_ms"] = res.shortAfctSec() * 1e3;
  out["model.short_p99_ms"] = res.shortP99Sec() * 1e3;
  out["model.long_goodput_gbps"] = res.longGoodputGbps();
  out["model.qct_p99_ms"] = res.appQctP99Sec() * 1e3;
  out["model.digest"] = digest(cfg, res);
}

harness::ExperimentConfig configFor(const std::string& workload,
                                    std::uint64_t seed) {
  return *perfbench::makeConfig(workload, seed);
}

Fields runUntraced(const std::string& workload, std::uint64_t seed) {
  const harness::Experiment exp(configFor(workload, seed));
  const perfbench::ReferenceResult refBefore = perfbench::runReference();
  resetPeakRss();
  const auto t0 = Clock::now();
  const harness::ExperimentResult res = exp.run();
  const double runSec = secondsSince(t0);
  const double peakRss = peakRssMb();
  const perfbench::ReferenceResult refAfter = perfbench::runReference();

  // Set-up: what precedes the first simulated event. Experiment::run does
  // its part internally, so it is timed here on the same public pieces
  // (Assembly without tracing). Timed after the run, whose peak RSS and
  // cold-process time it must not disturb; median of kSetupReps.
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto ts = Clock::now();
    const harness::Experiment pre(configFor(workload, seed));
    perfbench::Assembly assembly(pre.config(), nullptr);
    assembly.build();
    setups.push_back(secondsSince(ts));
  }
  std::sort(setups.begin(), setups.end());

  Fields out;
  out["setup_s"] = setups[setups.size() / 2];
  out["run_s"] = runSec;
  out["peak_rss_mb"] = peakRss;
  out["ref_before_s"] = refBefore.seconds;
  out["ref_after_s"] = refAfter.seconds;
  out["ref_checksum"] = refBefore.checksum == refAfter.checksum
                            ? static_cast<double>(refBefore.checksum)
                            : -1.0;
  out["events"] = static_cast<double>(res.executedEvents);
  addModel(out, exp.config(), res);
  return out;
}

Fields runAudit(const std::string& workload, std::uint64_t seed) {
  auto cfg = configFor(workload, seed);
  cfg.audit = harness::ExperimentConfig::Audit::kOn;
  const harness::ExperimentResult res = harness::runExperiment(cfg);
  Fields out;
  out["check.audit_violations"] = static_cast<double>(res.auditViolations);
  addModel(out, cfg, res);
  return out;
}

Fields runTraced(const std::string& workload, std::uint64_t seed) {
  auto tGen = Clock::now();
  const auto cfg = configFor(workload, seed);
  const double genSec = secondsSince(tGen);

  perfbench::LayerTrace trace;
  auto assembly = std::make_unique<perfbench::Assembly>(cfg, &trace);
  const double rssBefore = currentRssMb();
  const auto tRun = Clock::now();
  const double topoSec = assembly->build();
  const double setupSec = secondsSince(tRun);
  const double rssAfterSetup = currentRssMb();

  const auto tLoop = Clock::now();
  assembly->run();
  const double loopSec = secondsSince(tLoop);
  const double rssLoopEnd = currentRssMb();

  const auto tHarvest = Clock::now();
  const harness::ExperimentResult res = assembly->harvest();
  const double harvestSec = secondsSince(tHarvest);

  Fields out;
  addModel(out, cfg, res);
  const auto events = static_cast<double>(assembly->executedEvents());
  const auto endpoints = static_cast<double>(assembly->endpoints());
  out["transport.endpoints"] = endpoints;
  out["transport.fast_retransmits"] =
      static_cast<double>(assembly->fastRetransmits());
  out["transport.timeouts"] = static_cast<double>(assembly->timeouts());
  out["transport.endpoint_bytes"] =
      endpoints > 0 ? (rssLoopEnd - rssBefore) * 1024.0 * 1024.0 / endpoints
                    : 0.0;
  out["stats.qmon_samples"] = static_cast<double>(assembly->qmonSamples());
  out["lb.flow_state_tracked_peak"] =
      static_cast<double>(assembly->flowStatePeak());
  out["lb.flow_state_evictions"] =
      static_cast<double>(assembly->flowStateRemovals());

  const auto tTeardown = Clock::now();
  assembly.reset();
  const double teardownSec = secondsSince(tTeardown);
  const double runSec = setupSec + loopSec + harvestSec + teardownSec;

  // Self time per layer. Spans nest as step > {selectUplink, onPacket};
  // the step residual is the scheduler, links, switches and timers.
  const double lbSec = trace.decide.totalSec() + trace.attachSec;
  const double transportSec = trace.onPacket.totalSec();
  const double stepSec = trace.step.totalSec();
  const double simSelf = stepSec - lbSec - transportSec;
  const double endpointsBuildSec = setupSec - topoSec;
  const double layersSec =
      topoSec + endpointsBuildSec + simSelf + lbSec + transportSec +
      harvestSec + teardownSec;

  out["workload.gen_s"] = genSec;
  out["net.topology_build_s"] = topoSec;
  out["transport.endpoints_build_s"] = endpointsBuildSec;
  out["mem.rss_after_setup_mb"] = rssAfterSetup;
  out["sim.events"] = events;
  out["sim.ns_per_event"] = trace.step.meanNs();
  out["sim.heap_depth_mean"] =
      trace.step.calls > 0 ? static_cast<double>(trace.heapDepthSum) /
                                 static_cast<double>(trace.step.calls)
                           : 0.0;
  out["sim.heap_depth_peak"] = static_cast<double>(trace.heapDepthPeak);
  out["sim.periodic_ticks"] = static_cast<double>(trace.periodicTicks);
  out["sim.self_s"] = simSelf;
  out["sim.residual_share"] = stepSec > 0.0 ? simSelf / stepSec : 0.0;
  out["net.pkts_delivered"] = static_cast<double>(trace.onPacket.calls);
  out["net.events_per_pkt"] =
      trace.onPacket.calls > 0
          ? events / static_cast<double>(trace.onPacket.calls)
          : 0.0;
  out["net.fabric_drops"] = static_cast<double>(trace.fabricDrops);
  out["net.ecn_marks"] = static_cast<double>(trace.ecnMarks);
  out["net.uplink_wait_us_p50"] = trace.uplinkWaitUs.percentile(50.0);
  out["net.uplink_wait_us_p99"] = trace.uplinkWaitUs.percentile(99.0);
  out["lb.decisions"] = static_cast<double>(trace.decide.calls);
  out["lb.decide_ns_mean"] = trace.decide.meanNs();
  out["lb.decide_ns_p99"] = trace.decideNs.percentile(99.0);
  out["lb.self_s"] = lbSec;
  out["lb.share"] = stepSec > 0.0 ? lbSec / stepSec : 0.0;
  out["transport.on_packet_ns_mean"] = trace.onPacket.meanNs();
  out["transport.self_s"] = transportSec;
  out["transport.share"] = stepSec > 0.0 ? transportSec / stepSec : 0.0;
  out["app.rpc_flows"] = static_cast<double>(res.appRpcFlows);
  out["app.queries"] = static_cast<double>(res.appQueriesLaunched);
  out["fault.events"] = static_cast<double>(res.faultEventsApplied);
  out["fault.drops"] = static_cast<double>(trace.faultDrops);
  out["stats.harvest_s"] = harvestSec;
  out["harness.teardown_s"] = teardownSec;
  out["trace.run_s"] = runSec;
  out["trace.layers_sum_s"] = layersSec;
  out["trace.unattributed_share"] = (runSec - layersSec) / runSec;
  // The hooks must see exactly what the program counted.
  out["check.trace_counts_match"] =
      trace.fabricDrops == res.totalDrops &&
              trace.ecnMarks == res.totalEcnMarks &&
              trace.faultDrops == res.faultDrops
          ? 1.0
          : 0.0;
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: tlbsim_perfbench --workload NAME --seed N "
               "--mode untraced|traced|audit\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode;
  std::uint64_t seed = 0;
  bool haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--mode") {
      mode = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
      haveSeed = true;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flag without a value");
  if (!haveSeed) return usage("--seed is required");
  if (!perfbench::makeConfig(workload, seed)) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  Fields out;
  if (mode == "untraced") {
    out = runUntraced(workload, seed);
  } else if (mode == "traced") {
    out = runTraced(workload, seed);
  } else if (mode == "audit") {
    out = runAudit(workload, seed);
  } else {
    return usage(("unknown mode '" + mode + "'").c_str());
  }
  std::string line = "{";
  for (const auto& [k, v] : out) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    line += (line.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
  }
  std::printf("%s}\n", line.c_str());
  return 0;
}
