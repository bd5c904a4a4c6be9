// Named metrics for simulator instrumentation: counters, gauges,
// fixed-bucket histograms and timestamped series, collected in a
// MetricsRegistry and exportable as one JSON document.
//
// Counting contract: a component counts its own events in plain integers
// and holds no Counter or Gauge; its const addCountersTo(registry) adds
// them once, when the run ends (a TCP sender: when its pair is reused).
// Only timestamped records, Series points and trace events, are pushed
// during the run, through pointers that stay nullptr until a sink is
// installed: one well-predicted branch per site without observability.
// Metric objects have stable addresses for the registry's lifetime.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace tlbsim::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket i counts samples with
/// value <= bounds[i] (cumulative-style "le" upper bounds, Prometheus
/// convention); one implicit overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  const std::vector<std::uint64_t>& bucketCounts() const { return counts_; }

  /// Estimate the p-th percentile (p in [0,100]) by linear interpolation
  /// inside the bucket holding the target rank. Exact when samples align
  /// with bucket bounds; within one bucket width otherwise.
  double percentile(double p) const;

 private:
  std::vector<double> bounds_;       ///< ascending upper bounds
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Timestamped (t, value) series, e.g. the q_th trace sampled by TLB's
/// control loop. Bounded: points past `maxPoints` are counted, not stored,
/// mirroring EventTrace's maxEvents contract, so a long run cannot grow a
/// series without bound.
class Series {
 public:
  static constexpr std::size_t kDefaultMaxPoints = 1'000'000;

  explicit Series(std::size_t maxPoints = kDefaultMaxPoints)
      : maxPoints_(maxPoints) {}

  void add(SimTime t, double v) {
    if (points_.size() >= maxPoints_) {
      ++notStored_;
      return;
    }
    points_.emplace_back(t, v);
  }

  const std::vector<std::pair<SimTime, double>>& points() const {
    return points_;
  }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  std::size_t maxPoints() const { return maxPoints_; }
  /// Points dropped because the cap was reached.
  std::uint64_t pointsNotStored() const { return notStored_; }

 private:
  std::vector<std::pair<SimTime, double>> points_;
  std::size_t maxPoints_;
  std::uint64_t notStored_ = 0;
};

/// Owns all metrics of a run, keyed by name. Lookup creates on first use
/// and returns the same object afterwards (so independent components that
/// agree on a name share one aggregate). Export order is sorted by name,
/// making the JSON deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted on first creation; later callers share the
  /// existing histogram. A later caller passing non-empty bounds that
  /// disagree (after normalization) with the first registration trips a
  /// TLBSIM_DCHECK — empty bounds mean "whatever is registered".
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  /// `maxPoints` is only consulted on first creation, like histogram
  /// bounds; later callers share the existing series.
  Series& series(const std::string& name,
                 std::size_t maxPoints = Series::kDefaultMaxPoints);

  /// All counters as (name, value), sorted by name. Lets aggregators
  /// (e.g. the sweep runner's per-run summaries) fold counters without
  /// knowing their names up front.
  std::vector<std::pair<std::string, std::uint64_t>> counterValues() const;

  /// Lookup without creation; nullptr when the metric does not exist.
  const Counter* findCounter(const std::string& name) const;
  const Gauge* findGauge(const std::string& name) const;
  const Histogram* findHistogram(const std::string& name) const;
  const Series* findSeries(const std::string& name) const;

  /// One JSON object with "counters", "gauges", "histograms" and "series"
  /// sections. Series timestamps are exported in seconds.
  std::string toJson() const;
  bool writeJsonFile(const std::string& path) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace tlbsim::obs
