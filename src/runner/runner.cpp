#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "app/query_probe.hpp"
#include "harness/overrides.hpp"
#include "obs/flow_probe.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace tlbsim::runner {

namespace {

/// Summary keys that identify a run rather than measure it; they stay in
/// the per-run JSON but are excluded from the seed-axis aggregates.
bool isIdentityKey(const std::string& key) {
  return key == "seed" || key == "base_seed" || key == "point_index" ||
         key == "load";
}

double elapsedSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Builds, seeds and executes one sweep point. The config pipeline order
/// matters: base -> axis scheme -> variant overrides (variant wins) ->
/// derived seed -> workload, so overrides that reshape the topology are
/// visible to the workload generator.
RunOutcome runPoint(const SweepPoint& pt, const SweepScenario& scenario,
                    const RunnerOptions& opt) {
  harness::ExperimentConfig cfg = scenario.base(pt);
  cfg.scheme.scheme = pt.scheme;
  std::string err;
  if (!harness::applyOverrides(cfg, pt.variant.overrides, &err)) {
    throw std::runtime_error(err);
  }
  cfg.seed = pt.runSeed;
  if (scenario.workload) scenario.workload(cfg, pt);
  const harness::Experiment exp(std::move(cfg));

  // Share-nothing: the run's sinks are this worker's locals, each built
  // only when it is collected.
  std::optional<obs::MetricsRegistry> metrics;
  std::optional<obs::FlowProbe> flows;
  std::optional<app::QueryProbe> queries;
  harness::Sinks sinks;
  if (opt.collectMetrics) sinks.metrics = &metrics.emplace();
  if (opt.collectFlows || !opt.flowsNdjsonPath.empty()) {
    sinks.flows = &flows.emplace();
  }
  if ((opt.collectQueries || !opt.queriesNdjsonPath.empty()) &&
      exp.config().app.enabled()) {
    sinks.queries = &queries.emplace();
  }

  RunOutcome out;
  out.point = pt;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = exp.run(sinks);
  out.wallSeconds = elapsedSeconds(t0);

  out.summary = harness::summarizeExperiment(exp.config(), out.result);
  out.summary.setMeta("point", pt.label());
  if (!pt.variant.label.empty()) {
    out.summary.setMeta("variant", pt.variant.label);
  }
  out.summary.set("point_index", static_cast<double>(pt.index));
  out.summary.set("base_seed", static_cast<double>(pt.baseSeed));
  if (pt.hasLoad) out.summary.set("load", pt.load);
  if (metrics) {
    for (const auto& [name, value] : metrics->counterValues()) {
      out.summary.set("metric." + name, static_cast<double>(value));
    }
  }
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"point", pt.label()},
      {"scheme", harness::schemeCliName(pt.scheme)},
      {"seed", std::to_string(pt.runSeed)}};
  if (flows) {
    flows->fold(out.summary);
    if (!opt.flowsNdjsonPath.empty()) out.flowsNdjson = flows->toNdjson(meta);
  }
  if (queries) {
    queries->fold(out.summary);
    if (!opt.queriesNdjsonPath.empty()) {
      out.queriesNdjson = queries->toNdjson(meta);
    }
  }
  return out;
}

void appendStringArray(std::string& out, const std::vector<std::string>& v) {
  out += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + obs::jsonEscape(v[i]) + "\"";
  }
  out += "]";
}

void appendNumberArray(std::string& out, const std::vector<double>& v) {
  out += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += obs::jsonNumber(v[i]);
  }
  out += "]";
}

RunningStats& statsSlot(PointAggregate& agg, const std::string& name) {
  for (auto& [key, stats] : agg.metrics) {
    if (key == name) return stats;
  }
  agg.metrics.emplace_back(name, RunningStats{});
  return agg.metrics.back().second;
}

std::vector<PointAggregate> aggregate(const std::vector<RunOutcome>& runs) {
  std::vector<PointAggregate> aggs;
  std::vector<std::string> keys;  // parallel to aggs
  for (const RunOutcome& run : runs) {
    const std::string key = run.point.groupKey();
    std::size_t slot = keys.size();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) {
        slot = i;
        break;
      }
    }
    if (slot == keys.size()) {
      keys.push_back(key);
      PointAggregate agg;
      agg.point = run.point;
      aggs.push_back(std::move(agg));
    }
    PointAggregate& agg = aggs[slot];
    ++agg.runs;
    for (const auto& [name, value] : run.summary.values()) {
      if (isIdentityKey(name)) continue;
      statsSlot(agg, name).add(value);
    }
  }
  return aggs;
}

}  // namespace

const RunningStats* PointAggregate::stats(const std::string& name) const {
  for (const auto& [key, s] : metrics) {
    if (key == name) return &s;
  }
  return nullptr;
}

double PointAggregate::mean(const std::string& name) const {
  const RunningStats* s = stats(name);
  return s != nullptr ? s->mean() : 0.0;
}

const PointAggregate* SweepReport::find(harness::Scheme scheme) const {
  for (const auto& agg : aggregates) {
    if (agg.point.scheme == scheme) return &agg;
  }
  return nullptr;
}

const PointAggregate* SweepReport::find(harness::Scheme scheme,
                                        double load) const {
  for (const auto& agg : aggregates) {
    if (agg.point.scheme == scheme && agg.point.hasLoad &&
        agg.point.load == load) {
      return &agg;
    }
  }
  return nullptr;
}

const PointAggregate* SweepReport::find(
    harness::Scheme scheme, const std::string& variantLabel) const {
  for (const auto& agg : aggregates) {
    if (agg.point.scheme == scheme &&
        agg.point.variant.label == variantLabel) {
      return &agg;
    }
  }
  return nullptr;
}

std::string SweepReport::toJson() const {
  std::string out = "{\n  \"sweep\": {\n    \"schemes\": ";
  {
    std::vector<std::string> names;
    names.reserve(spec.schemes.size());
    for (const harness::Scheme s : spec.schemes) {
      names.emplace_back(harness::schemeCliName(s));
    }
    appendStringArray(out, names);
  }
  out += ",\n    \"loads\": ";
  appendNumberArray(out, spec.loads);
  out += ",\n    \"seeds\": ";
  {
    std::vector<double> seeds;
    seeds.reserve(spec.seeds.size());
    for (const std::uint64_t s : spec.seeds) {
      seeds.push_back(static_cast<double>(s));
    }
    appendNumberArray(out, seeds);
  }
  out += ",\n    \"variants\": ";
  {
    std::vector<std::string> labels;
    labels.reserve(spec.variants.size());
    for (const Variant& v : spec.variants) labels.push_back(v.label);
    appendStringArray(out, labels);
  }
  out += ",\n    \"sweep_seed\": " +
         obs::jsonNumber(static_cast<double>(spec.sweepSeed));
  out += ",\n    \"points\": " +
         obs::jsonNumber(static_cast<double>(runs.size()));
  out += "\n  },\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += runs[i].summary.toJson(4);
  }
  out += runs.empty() ? "],\n" : "\n  ],\n";
  out += "  \"aggregates\": [";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const PointAggregate& agg = aggregates[i];
    out += i == 0 ? "\n    {\n" : ",\n    {\n";
    out += "      \"scheme\": \"";
    out += harness::schemeCliName(agg.point.scheme);
    out += "\",\n";
    if (agg.point.hasLoad) {
      out += "      \"load\": " + obs::jsonNumber(agg.point.load) + ",\n";
    }
    if (!agg.point.variant.label.empty()) {
      out += "      \"variant\": \"" +
             obs::jsonEscape(agg.point.variant.label) + "\",\n";
      out += "      \"overrides\": ";
      appendStringArray(out, agg.point.variant.overrides);
      out += ",\n";
    }
    out += "      \"runs\": " +
           obs::jsonNumber(static_cast<double>(agg.runs));
    out += ",\n      \"metrics\": {";
    for (std::size_t m = 0; m < agg.metrics.size(); ++m) {
      const auto& [name, stats] = agg.metrics[m];
      out += m == 0 ? "\n" : ",\n";
      out += "        \"" + obs::jsonEscape(name) + "\": {\"mean\": " +
             obs::jsonNumber(stats.mean()) +
             ", \"min\": " + obs::jsonNumber(stats.min()) +
             ", \"max\": " + obs::jsonNumber(stats.max()) +
             ", \"stddev\": " +
             obs::jsonNumber(std::sqrt(stats.variance())) + "}";
    }
    out += agg.metrics.empty() ? "}\n    }" : "\n      }\n    }";
  }
  out += aggregates.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool SweepReport::writeJsonFile(const std::string& path) const {
  return obs::writeTextFile(path, toJson());
}

int resolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepReport runSweep(const SweepSpec& spec, const SweepScenario& scenario,
                     const RunnerOptions& opt) {
  TLBSIM_ASSERT(scenario.base != nullptr,
                "SweepScenario needs a base-config function");
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepPoint> points = spec.expand();

  SweepReport report;
  report.spec = spec;
  report.runs.resize(points.size());

  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards errors + onRunDone
  std::vector<std::string> errors;

  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      const SweepPoint& pt = points[i];
      try {
        // The slot at index i belongs to this worker alone; no lock.
        report.runs[i] = runPoint(pt, scenario, opt);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        errors.push_back("sweep point '" + pt.label() + "': " + e.what());
        continue;
      }
      if (opt.onRunDone) {
        const std::lock_guard<std::mutex> lock(mu);
        opt.onRunDone(pt, report.runs[i].result);
      }
    }
  };

  const int jobs = resolveJobs(opt.jobs);
  const std::size_t threads =
      std::min(static_cast<std::size_t>(jobs), points.size());
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (!errors.empty()) {
    std::string msg = "sweep failed (" + std::to_string(errors.size()) +
                      " of " + std::to_string(points.size()) + " runs):";
    for (const std::string& e : errors) msg += "\n  " + e;
    throw std::runtime_error(msg);
  }

  // Concatenate NDJSON blocks in point index order after the join, so the
  // files are byte-identical for any worker count.
  const auto writeBlocks =
      [&report](const std::string& path,
                std::string RunOutcome::*block) {
        if (path.empty()) return;
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
          throw std::runtime_error("cannot write NDJSON to " + path);
        }
        bool ok = true;
        for (const RunOutcome& run : report.runs) {
          const std::string& s = run.*block;
          ok = ok && std::fwrite(s.data(), 1, s.size(), f) == s.size();
        }
        ok = std::fclose(f) == 0 && ok;
        if (!ok) throw std::runtime_error("short write to " + path);
      };
  writeBlocks(opt.flowsNdjsonPath, &RunOutcome::flowsNdjson);
  writeBlocks(opt.queriesNdjsonPath, &RunOutcome::queriesNdjson);

  report.aggregates = aggregate(report.runs);
  report.wallSeconds = elapsedSeconds(t0);
  return report;
}

}  // namespace tlbsim::runner
