// tlbsim command-line runner: one leaf-spine experiment, or a parallel
// sweep of them, configured entirely from flags and printed as a table.
//
//   $ tlbsim_cli --scheme tlb --load 0.6 --flows 300 --workload websearch
//   $ tlbsim_cli --scheme letflow --leaves 4 --spines 8 --hosts-per-leaf 16
//         --rate-gbps 1 --buffer 256 --ecn-k 65 --seed 7 --csv flows.csv
//   $ tlbsim_cli sweep --schemes rps,letflow,tlb --loads 0.4,0.6,0.8
//         --seeds 1,2,3 --jobs 4 --json sweep.json
//   $ tlbsim_cli --list-schemes
//
// Experiment settings have one vocabulary, harness/overrides: every
// experiment flag is sugar for an override key (--leaves 4 is
// topo.leaves=4), and --set KEY=VALUE and --config lines speak it too.
// Both subcommands parse with the same code and check the finished config
// once, before any simulation starts.
//
// Exit code 0 on success, 1 on bad input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/query_probe.hpp"
#include "harness/experiment.hpp"
#include "harness/overrides.hpp"
#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "stats/csv.hpp"
#include "stats/report.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "workload/traffic_gen.hpp"

using namespace tlbsim;

namespace {

/// What one invocation asks for. Experiment settings never live here:
/// they are override strings, applied in order onto an ExperimentConfig —
/// the subcommand's defaults first, then every experiment flag, --set and
/// --config line where it appears on the command line.
struct Options {
  bool sweep = false;
  std::vector<std::string> overrides;
  std::string workload = "websearch";
  int flows = 300;
  bool audit = false;
  std::string flowsJsonPath;
  std::string queriesJsonPath;

  // A single run.
  double load = 0.5;
  std::uint64_t seed = 1;
  std::string csvPath;
  std::string metricsJsonPath;
  std::string traceJsonPath;
  LogLevel logLevel = LogLevel::kNone;

  // A sweep.
  runner::SweepSpec spec;
  int jobs = 0;  // 0 = all cores
  std::string jsonPath;
  bool collectMetrics = false;
  bool collectFlows = false;
  bool collectQueries = false;
};

/// The defaults of a single run: the 2:1 oversubscribed 4x4x8 fabric the
/// web-search runs use. A sweep keeps ExperimentConfig's 2x15x16 basic
/// setup. Both stop at 120 simulated seconds.
const std::vector<std::string> kRunDefaults = {
    "topo.leaves=4", "topo.spines=4", "topo.hosts-per-leaf=8",
    "max-duration-ms=120000"};
const std::vector<std::string> kSweepDefaults = {"max-duration-ms=120000"};

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Offered load, in a run (--load) and on a sweep axis (--loads) alike.
bool validLoad(double load) { return load > 0.0 && load <= 10.0; }

/// Maps a --log-level name onto the Logger enum; nullopt for unknown names.
std::optional<LogLevel> parseLogLevel(const std::string& name) {
  if (name == "none") return LogLevel::kNone;
  if (name == "error") return LogLevel::kError;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "info") return LogLevel::kInfo;
  if (name == "debug") return LogLevel::kDebug;
  return std::nullopt;
}

bool loadConfigFile(Options* opt, const std::string& path);

/// One tool-level option: how a run or sweep is driven and reported, as
/// opposed to the experiment itself (those flags are harness sugar).
struct CliOption {
  const char* name;
  enum Scope { kBoth, kRun, kSweep } scope;
  bool isSwitch;  ///< bare on the command line, a bool in a config file
  /// Parses the value into *opt; false when it is bad.
  std::function<bool(Options*, const std::string&)> set;
};

/// An integer of at least `lo` that fits the field's type.
template <typename T>
std::function<bool(Options*, const std::string&)> integer(T Options::*field,
                                                         std::int64_t lo) {
  return [field, lo](Options* o, const std::string& v) {
    const auto n = util::parseInt(v);
    if (!n.has_value() || *n < lo || !std::in_range<T>(*n)) return false;
    o->*field = static_cast<T>(*n);
    return true;
  };
}
std::function<bool(Options*, const std::string&)> text(
    std::string Options::*field) {
  return [field](Options* o, const std::string& v) {
    o->*field = v;
    return true;
  };
}
std::function<bool(Options*, const std::string&)> flag(bool Options::*field) {
  return [field](Options* o, const std::string& v) {
    const auto b = v.empty() ? std::optional<bool>(true) : util::parseBool(v);
    if (!b.has_value()) return false;
    o->*field = *b;
    return true;
  };
}

const std::vector<CliOption>& cliOptions() {
  static const std::vector<CliOption> table = {
      {"config", CliOption::kBoth, false, loadConfigFile},
      {"set", CliOption::kBoth, false,
       [](Options* o, const std::string& v) {
         o->overrides.push_back(v);
         return true;
       }},
      {"workload", CliOption::kBoth, false, text(&Options::workload)},
      {"flows", CliOption::kBoth, false, integer(&Options::flows, 1)},
      {"audit", CliOption::kBoth, true, flag(&Options::audit)},
      {"flows-json", CliOption::kBoth, false, text(&Options::flowsJsonPath)},
      {"queries-json", CliOption::kBoth, false,
       text(&Options::queriesJsonPath)},
      {"load", CliOption::kRun, false,
       [](Options* o, const std::string& v) {
         const auto x = util::parseReal(v);
         if (!x.has_value() || !validLoad(*x)) return false;
         o->load = *x;
         return true;
       }},
      {"seed", CliOption::kRun, false, integer(&Options::seed, 0)},
      {"csv", CliOption::kRun, false, text(&Options::csvPath)},
      {"metrics-json", CliOption::kRun, false,
       text(&Options::metricsJsonPath)},
      {"trace-json", CliOption::kRun, false, text(&Options::traceJsonPath)},
      {"log-level", CliOption::kRun, false,
       [](Options* o, const std::string& v) {
         const auto level = parseLogLevel(v);
         if (!level.has_value()) return false;
         o->logLevel = *level;
         return true;
       }},
      {"schemes", CliOption::kSweep, false,
       [](Options* o, const std::string& v) {
         o->spec.schemes.clear();
         for (const std::string& name : splitCsv(v)) {
           const auto s = harness::parseScheme(name);
           if (!s.has_value()) return false;
           o->spec.schemes.push_back(*s);
         }
         return true;
       }},
      {"loads", CliOption::kSweep, false,
       [](Options* o, const std::string& v) {
         o->spec.loads.clear();
         for (const std::string& item : splitCsv(v)) {
           const auto x = util::parseReal(item);
           if (!x.has_value() || !validLoad(*x)) return false;
           o->spec.loads.push_back(*x);
         }
         return true;
       }},
      {"seeds", CliOption::kSweep, false,
       [](Options* o, const std::string& v) {
         o->spec.seeds.clear();
         for (const std::string& item : splitCsv(v)) {
           const auto n = util::parseInt(item);
           if (!n.has_value() || *n < 0) return false;
           o->spec.seeds.push_back(static_cast<std::uint64_t>(*n));
         }
         return true;
       }},
      {"sweep-seed", CliOption::kSweep, false,
       [](Options* o, const std::string& v) {
         const auto n = util::parseInt(v);
         if (!n.has_value() || *n < 0) return false;
         o->spec.sweepSeed = static_cast<std::uint64_t>(*n);
         return true;
       }},
      {"jobs", CliOption::kSweep, false, integer(&Options::jobs, 0)},
      {"json", CliOption::kSweep, false, text(&Options::jsonPath)},
      {"metrics", CliOption::kSweep, true, flag(&Options::collectMetrics)},
      {"flow-stats", CliOption::kSweep, true, flag(&Options::collectFlows)},
      {"query-stats", CliOption::kSweep, true,
       flag(&Options::collectQueries)},
  };
  return table;
}

const CliOption* findCliOption(const std::string& name) {
  for (const CliOption& o : cliOptions()) {
    if (name == o.name) return &o;
  }
  return nullptr;
}

/// Whether `name` is a flag, and whether it takes a value.
harness::FlagArity arityOf(const std::string& name) {
  if (const CliOption* o = findCliOption(name)) {
    return o->isSwitch ? harness::FlagArity::kSwitch
                       : harness::FlagArity::kValue;
  }
  return harness::flagArity(name);
}

/// Applies one named option: a command-line flag without its "--", or a
/// config-file line. Tool options first; every other name is an
/// experiment flag or override key, expanded into overrides. Prints a
/// named error and returns false on a bad name or value.
bool applyOption(Options* opt, const std::string& name,
                 const std::string& value) {
  if (const CliOption* o = findCliOption(name)) {
    const auto here = opt->sweep ? CliOption::kSweep : CliOption::kRun;
    if (o->scope != CliOption::kBoth && o->scope != here) {
      std::fprintf(stderr, "--%s is a %s flag\n", name.c_str(),
                   o->scope == CliOption::kSweep ? "sweep" : "single-run");
      return false;
    }
    if (o->set(opt, value)) return true;
    // --config reports its own errors.
    if (name != "config") {
      std::fprintf(stderr, "bad value '%s' for --%s\n", value.c_str(),
                   name.c_str());
    }
    return false;
  }
  std::string err;
  if (harness::flagOverrides(name, value, &opt->overrides, &err)) return true;
  std::fprintf(stderr, "%s\n", err.c_str());
  return false;
}

/// A key=value file: every line is a flag name without "--" (switches
/// take a bool) or an override key, applied where --config appears.
bool loadConfigFile(Options* opt, const std::string& path) {
  const auto file = KeyValueConfig::fromFile(path);
  if (!file.has_value()) {
    std::fprintf(stderr, "cannot read config file '%s'\n", path.c_str());
    return false;
  }
  bool ok = file->errors().empty();
  for (const auto& err : file->errors()) {
    std::fprintf(stderr, "config %s: bad line %s\n", path.c_str(),
                 err.c_str());
  }
  for (const auto& key : file->keys()) {
    if (key == "config") {
      std::fprintf(stderr, "config %s: config files do not nest\n",
                   path.c_str());
      ok = false;
      continue;
    }
    ok = applyOption(opt, key, file->get(key)) && ok;
  }
  return ok;
}

void usage(bool sweep) {
  if (sweep) {
    std::printf(
        "usage: tlbsim_cli sweep [options]\n"
        "  --schemes A,B,C      scheme axis (default tlb; --list-schemes);\n"
        "                       it owns the scheme, so no --scheme here\n"
        "  --loads X,Y,Z        offered-load axis, each in (0, 10]\n"
        "                       (default 0.5)\n"
        "  --seeds N,M,...      seed axis, one repetition each (default 1)\n"
        "  --sweep-seed N       re-randomizes every derived run seed\n"
        "  --jobs N             worker threads (default: all cores)\n"
        "  --json PATH          write the aggregated sweep report as JSON\n"
        "  --workload NAME      websearch | datamining | basicmix | none\n"
        "  --flows N            flows per run (default 300)\n"
        "  --metrics            collect per-run obs counters into the report\n"
        "  --flow-stats         fold per-run flow-telemetry summaries\n"
        "                       (reorder rate, path churn, ...) into it\n"
        "  --flows-json PATH    implies --flow-stats; also write every run's\n"
        "                       per-flow records to one NDJSON file (point\n"
        "                       index order; analyze with tlbsim_flows)\n"
        "  --query-stats        fold per-run query-telemetry summaries into\n"
        "                       the report\n"
        "  --queries-json PATH  implies --query-stats; also write every\n"
        "                       run's per-query records to one NDJSON file\n"
        "  --audit              run the invariant audit in every run\n"
        "Every experiment flag of a single run (tlbsim_cli --help) sets the\n"
        "base config of all runs, as do --set KEY=VALUE and --config PATH.\n"
        "The base fabric is 2x15x16 (the paper's basic setup).\n");
    return;
  }
  std::printf(
      "usage: tlbsim_cli [options]\n"
      "       tlbsim_cli sweep [sweep options]   (tlbsim_cli sweep --help)\n"
      "Experiment flags, each sugar for an override key:\n"
      "  --scheme NAME        load balancer (--list-schemes)\n"
      "  --leaves N --spines N --hosts-per-leaf N   topology (default\n"
      "                       4x4x8, 2:1 oversubscribed at the leaf)\n"
      "  --rate-gbps X        link rate (default 1)\n"
      "  --rtt-us X           base RTT (default 100)\n"
      "  --buffer N           buffer per port, packets (default 256)\n"
      "  --ecn-k N            DCTCP marking threshold, packets (0=off,\n"
      "                       default 65, at most --buffer)\n"
      "  --classic-tcp        disable reordering-tolerant retransmit guard\n"
      "  --fault SPEC         link-fault schedule, repeatable; SPEC is\n"
      "                       leafL-spineS,down@T,up@T,rate=F@T,delay=F@T,\n"
      "                       drop=P@T with time suffix s/ms/us/ns, e.g.\n"
      "                       --fault leaf0-spine1,down@0.1s,up@0.3s\n"
      "                       (';' joins several links in one SPEC)\n"
      "  --fault-drain        drain in-flight packets on link-down instead\n"
      "                       of dropping them\n"
      "  --app SPEC           run a partition-aggregate RPC service; SPEC\n"
      "                       is comma-joined app.* keys sans the prefix,\n"
      "                       e.g. --app queries=200,fan-out=16,slo-ms=10\n"
      "                       (repeatable; --workload none for app-only)\n"
      "  --set KEY=VALUE      any override key, repeatable\n"
      "  --list-overrides     print every key (with its flag) and exit\n"
      "  --config PATH        key=value file of flags sans -- or override\n"
      "                       keys, applied where --config appears\n"
      "Run options:\n"
      "  --workload NAME      websearch | datamining | basicmix (needs 2\n"
      "                       leaves) | none\n"
      "  --load X             offered load vs bisection, in (0, 10]\n"
      "                       (default 0.5)\n"
      "  --flows N            flows to generate (default 300)\n"
      "  --seed N             RNG seed (default 1)\n"
      "  --csv PATH           write per-flow results as CSV\n"
      "  --metrics-json PATH  write counters/gauges/histograms/series as JSON\n"
      "  --trace-json PATH    write a Chrome trace-event JSON (open in\n"
      "                       Perfetto / chrome://tracing)\n"
      "  --flows-json PATH    write per-flow telemetry (FlowProbe records\n"
      "                       and the path-utilization matrix) as NDJSON;\n"
      "                       analyze with tlbsim_flows\n"
      "  --queries-json PATH  write per-query telemetry (QueryProbe\n"
      "                       records: QCT, SLO hit/miss, retries, slowest\n"
      "                       worker) as NDJSON\n"
      "  --log-level LEVEL    stderr logging: error|warn|info|debug\n"
      "                       (default: none)\n"
      "  --audit              run the tlbsim::check invariant audit each\n"
      "                       control tick (on by default in Debug builds);\n"
      "                       violations abort the run\n"
      "  --list-schemes       print scheme names and exit\n");
}

bool parseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(opt->sweep);
      std::exit(0);
    } else if (arg == "--list-schemes") {
      for (const harness::Scheme s : harness::allSchemes()) {
        std::printf("%s\n", harness::schemeCliName(s));
      }
      std::exit(0);
    } else if (arg == "--list-overrides") {
      for (const std::string& line : harness::overrideHelp()) {
        std::printf("%s\n", line.c_str());
      }
      std::exit(0);
    }
    const std::string name = arg.rfind("--", 0) == 0 ? arg.substr(2) : "";
    const harness::FlagArity arity = arityOf(name);
    if (arity == harness::FlagArity::kUnknown) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(opt->sweep);
      return false;
    }
    std::string value;
    if (arity == harness::FlagArity::kValue) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!applyOption(opt, name, value)) return false;
  }
  return true;
}

/// The experiment the overrides describe, checked as a whole; nullopt
/// after a named error.
std::optional<harness::ExperimentConfig> buildConfig(const Options& opt) {
  harness::ExperimentConfig cfg;
  std::string err;
  if (!harness::applyOverrides(cfg, opt.overrides, &err) ||
      !harness::checkConfig(cfg, &err)) {
    std::fprintf(stderr, "%s (--list-overrides)\n", err.c_str());
    return std::nullopt;
  }
  if (opt.audit) cfg.audit = harness::ExperimentConfig::Audit::kOn;
  return cfg;
}

int sweepMain(const Options& opt) {
  for (const std::string& o : opt.overrides) {
    if (o.rfind("scheme=", 0) == 0) {
      std::fprintf(stderr, "'%s': the --schemes axis sets the scheme\n",
                   o.c_str());
      return 1;
    }
  }
  const std::optional<harness::ExperimentConfig> built = buildConfig(opt);
  if (!built.has_value()) return 1;
  const harness::ExperimentConfig& base = *built;
  // Generating once up front rejects a workload the fabric cannot carry
  // before any worker starts.
  {
    Rng probe(1);
    std::string err;
    if (!workload::namedWorkload(opt.workload, base.topo,
                                 opt.spec.loads.front(), opt.flows, probe,
                                 &err)) {
      std::fprintf(stderr, "--workload: %s\n", err.c_str());
      return 1;
    }
  }

  runner::SweepScenario scenario;
  scenario.base = [&base](const runner::SweepPoint&) { return base; };
  scenario.workload = [&opt](harness::ExperimentConfig& cfg,
                             const runner::SweepPoint& pt) {
    Rng rng(cfg.seed);
    cfg.flows = workload::namedWorkload(opt.workload, cfg.topo, pt.load,
                                        opt.flows, rng)
                    .value();
  };

  runner::RunnerOptions ropt;
  ropt.jobs = opt.jobs;
  ropt.collectMetrics = opt.collectMetrics;
  ropt.collectFlows = opt.collectFlows;
  ropt.flowsNdjsonPath = opt.flowsJsonPath;
  ropt.collectQueries = opt.collectQueries;
  ropt.queriesNdjsonPath = opt.queriesJsonPath;
  ropt.onRunDone = [](const runner::SweepPoint& pt,
                      const harness::ExperimentResult& res) {
    std::printf("  done %-40s afct=%.3fms p99=%.3fms\n", pt.label().c_str(),
                res.shortAfctSec() * 1e3, res.shortP99Sec() * 1e3);
  };

  std::printf("sweep: %zu runs on %d worker(s), workload=%s\n",
              opt.spec.size(), runner::resolveJobs(opt.jobs),
              opt.workload.c_str());
  runner::SweepReport report;
  try {
    report = runner::runSweep(opt.spec, scenario, ropt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  stats::Table t({"scheme", "load", "runs", "afct ms", "p99 ms", "miss %",
                  "goodput Mbps"});
  for (const auto& agg : report.aggregates) {
    t.addRow(std::string(harness::schemeCliName(agg.point.scheme)) +
                 (agg.point.variant.label.empty()
                      ? ""
                      : " [" + agg.point.variant.label + "]"),
             {agg.point.load, static_cast<double>(agg.runs),
              agg.mean("short_afct_ms"), agg.mean("short_p99_ms"),
              agg.mean("deadline_miss_ratio") * 100.0,
              agg.mean("long_goodput_gbps") * 1e3},
             3);
  }
  t.print("sweep aggregates (mean over seeds)");
  std::printf("sweep wall time: %.2fs\n", report.wallSeconds);

  if (!opt.jsonPath.empty()) {
    if (!report.writeJsonFile(opt.jsonPath)) {
      std::fprintf(stderr, "cannot write sweep JSON '%s'\n",
                   opt.jsonPath.c_str());
      return 1;
    }
    std::printf("sweep JSON written to %s\n", opt.jsonPath.c_str());
  }
  if (!opt.flowsJsonPath.empty()) {
    std::printf("flows NDJSON written to %s\n", opt.flowsJsonPath.c_str());
  }
  if (!opt.queriesJsonPath.empty()) {
    std::printf("queries NDJSON written to %s\n",
                opt.queriesJsonPath.c_str());
  }

  bool auditFailed = false;
  for (const auto& run : report.runs) {
    if (run.result.auditViolations > 0) {
      std::fprintf(stderr, "invariant audit: %llu violation(s) in '%s'\n",
                   static_cast<unsigned long long>(run.result.auditViolations),
                   run.point.label().c_str());
      auditFailed = true;
    }
  }
  return auditFailed ? 1 : 0;
}

int runMain(const Options& opt) {
  Logger::setLevel(opt.logLevel);
  std::optional<harness::ExperimentConfig> built = buildConfig(opt);
  if (!built.has_value()) return 1;
  harness::ExperimentConfig& cfg = *built;
  cfg.seed = opt.seed;
  Rng rng(cfg.seed);
  std::string err;
  auto flows = workload::namedWorkload(opt.workload, cfg.topo, opt.load,
                                       opt.flows, rng, &err);
  if (!flows.has_value()) {
    std::fprintf(stderr, "--workload: %s\n", err.c_str());
    return 1;
  }
  cfg.flows = std::move(*flows);

  // Observability is pay-for-what-you-ask: the registry, trace, and flow
  // probe only exist (and the hot paths only record) when an output path
  // was given.
  obs::MetricsRegistry metrics;
  obs::EventTrace trace;
  obs::FlowProbe flowProbe;
  app::QueryProbe queries;
  harness::Sinks sinks;
  if (!opt.metricsJsonPath.empty()) sinks.metrics = &metrics;
  if (!opt.traceJsonPath.empty()) sinks.trace = &trace;
  if (!opt.flowsJsonPath.empty()) sinks.flows = &flowProbe;
  if (!opt.queriesJsonPath.empty()) sinks.queries = &queries;

  const auto res = harness::runExperiment(cfg, sinks);

  stats::Table t({"metric", "value"});
  // A mean or percentile over no sample prints n/a, not 0.
  const auto addSampled = [&t](const std::string& label, bool sampled,
                               double value, int precision) {
    t.addRow({label, sampled ? stats::fmt(value, precision) : "n/a"});
  };
  const bool shortDone =
      res.ledger.completedCount(stats::FlowLedger::isShort) > 0;
  t.addRow("completed flows",
           {static_cast<double>(
               res.ledger.completedCount([](const auto&) { return true; }))},
           0);
  t.addRow("total flows", {static_cast<double>(res.ledger.size())}, 0);
  t.addRow("simulated ms", {toMilliseconds(res.endTime)}, 1);
  addSampled("short AFCT ms", shortDone, res.shortAfctSec() * 1e3, 3);
  addSampled("short p99 ms", shortDone, res.shortP99Sec() * 1e3, 3);
  t.addRow("deadline miss %", {res.shortMissRatio() * 100.0}, 2);
  addSampled("long goodput Mbps",
             res.ledger.completedCount(stats::FlowLedger::isLong) > 0,
             res.longGoodputGbps() * 1e3, 1);
  t.addRow("short dup-ACK ratio", {res.shortDupAckRatioTotal()}, 4);
  t.addRow("long ooo ratio", {res.longOooRatioTotal()}, 4);
  t.addRow("fabric drops", {static_cast<double>(res.totalDrops)}, 0);
  t.addRow("ECN marks", {static_cast<double>(res.totalEcnMarks)}, 0);
  if (!cfg.fault.empty()) {
    t.addRow("fault events", {static_cast<double>(res.faultEventsApplied)},
             0);
    t.addRow("fault drops", {static_cast<double>(res.faultDrops)}, 0);
    t.addRow("fault affected long",
             {static_cast<double>(res.faultAffectedLongFlows)}, 0);
    t.addRow("fault rerouted long",
             {static_cast<double>(res.faultReroutedLongFlows)}, 0);
    t.addRow("time to reroute ms", {res.faultMeanRerouteSec * 1e3}, 3);
    t.addRow("goodput dip ratio", {res.faultGoodputDipRatio}, 3);
  }
  if (cfg.app.enabled()) {
    t.addRow("app queries", {static_cast<double>(res.appQueriesLaunched)}, 0);
    t.addRow("app completed",
             {static_cast<double>(res.appQueriesCompleted)}, 0);
    const bool queryDone = !res.appQctSeconds.empty();
    addSampled("app QCT mean ms", queryDone, res.appQctMeanSec() * 1e3, 3);
    addSampled("app QCT p99 ms", queryDone, res.appQctP99Sec() * 1e3, 3);
    t.addRow("app SLO miss %", {res.appSloMissRatio() * 100.0}, 2);
    t.addRow("app retries", {static_cast<double>(res.appRetries)}, 0);
    t.addRow("app rpc flows", {static_cast<double>(res.appRpcFlows)}, 0);
  }
  if (res.auditChecks > 0) {
    t.addRow("audit checks", {static_cast<double>(res.auditChecks)}, 0);
    t.addRow("audit violations", {static_cast<double>(res.auditViolations)},
             0);
  }
  std::printf("scheme=%s workload=%s load=%.2f seed=%llu\n",
              harness::schemeName(cfg.scheme.scheme), opt.workload.c_str(),
              opt.load, static_cast<unsigned long long>(opt.seed));
  t.print("tlbsim_cli results");

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"scheme", harness::schemeCliName(cfg.scheme.scheme)},
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)}};
  if (!opt.csvPath.empty()) {
    if (!stats::writeFlowsCsv(opt.csvPath, res.ledger)) {
      std::fprintf(stderr, "cannot write per-flow CSV '%s'\n",
                   opt.csvPath.c_str());
      return 1;
    }
    std::printf("per-flow CSV written to %s\n", opt.csvPath.c_str());
  }
  if (!opt.metricsJsonPath.empty()) {
    if (!metrics.writeJsonFile(opt.metricsJsonPath)) {
      std::fprintf(stderr, "cannot write metrics JSON '%s'\n",
                   opt.metricsJsonPath.c_str());
      return 1;
    }
    std::printf("metrics JSON written to %s\n", opt.metricsJsonPath.c_str());
  }
  if (!opt.traceJsonPath.empty()) {
    if (!trace.writeJsonFile(opt.traceJsonPath)) {
      std::fprintf(stderr, "cannot write trace JSON '%s'\n",
                   opt.traceJsonPath.c_str());
      return 1;
    }
    std::printf("trace JSON written to %s (%zu events)\n",
                opt.traceJsonPath.c_str(), trace.size());
    if (trace.eventsNotStored() > 0) {
      std::printf("  note: %zu further trace events hit the cap\n",
                  trace.eventsNotStored());
    }
  }
  if (!opt.flowsJsonPath.empty()) {
    if (!flowProbe.writeNdjsonFile(opt.flowsJsonPath, meta)) {
      std::fprintf(stderr, "cannot write flows NDJSON '%s'\n",
                   opt.flowsJsonPath.c_str());
      return 1;
    }
    std::printf("flows NDJSON written to %s (%zu flows)\n",
                opt.flowsJsonPath.c_str(), flowProbe.flowCount());
    if (flowProbe.flowsNotTracked() > 0) {
      std::printf("  note: %zu further flows hit the probe cap\n",
                  flowProbe.flowsNotTracked());
    }
  }
  if (!opt.queriesJsonPath.empty()) {
    if (!queries.writeNdjsonFile(opt.queriesJsonPath, meta)) {
      std::fprintf(stderr, "cannot write queries NDJSON '%s'\n",
                   opt.queriesJsonPath.c_str());
      return 1;
    }
    std::printf("queries NDJSON written to %s (%zu queries)\n",
                opt.queriesJsonPath.c_str(), queries.queryCount());
    if (queries.queriesNotTracked() > 0) {
      std::printf("  note: %llu further queries hit the probe cap\n",
                  static_cast<unsigned long long>(
                      queries.queriesNotTracked()));
    }
  }
  if (res.auditViolations > 0) {
    std::fprintf(stderr, "invariant audit recorded %llu violation(s)\n",
                 static_cast<unsigned long long>(res.auditViolations));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.sweep = argc > 1 && std::strcmp(argv[1], "sweep") == 0;
  opt.overrides = opt.sweep ? kSweepDefaults : kRunDefaults;
  if (opt.sweep) {
    --argc;
    ++argv;
  }
  if (!parseArgs(argc, argv, &opt)) return 1;
  if (opt.spec.loads.empty()) opt.spec.loads = {0.5};
  return opt.sweep ? sweepMain(opt) : runMain(opt);
}
