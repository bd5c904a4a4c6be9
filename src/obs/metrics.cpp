#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace tlbsim::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank target, matching SampleSet::percentile.
  const auto target = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (cumulative + counts_[i] < target) {
      cumulative += counts_[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    if (i == bounds_.size()) return lo;  // overflow bucket: best lower bound
    const double hi = bounds_[i];
    const double within = static_cast<double>(target - cumulative) /
                          static_cast<double>(counts_[i]);
    return lo + (hi - lo) * within;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
  }
  // Disagreeing bounds would silently land one caller's samples in the
  // other caller's buckets; empty bounds mean "whatever is registered".
  // Constructing a throwaway Histogram normalizes (sorts, dedups) before
  // comparing, so equivalent spellings of the same buckets agree.
  TLBSIM_DCHECK(
      bounds.empty() || Histogram(std::move(bounds)).bounds() == slot->bounds(),
      "histogram '%s' re-registered with different bounds", name.c_str());
  return *slot;
}

Series& MetricsRegistry::series(const std::string& name,
                                std::size_t maxPoints) {
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>(maxPoints);
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counterValues() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

const Counter* MetricsRegistry::findCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::findGauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::findHistogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

const Series* MetricsRegistry::findSeries(const std::string& name) const {
  const auto it = series_.find(name);
  return it != series_.end() ? it->second.get() : nullptr;
}

std::string MetricsRegistry::toJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + jsonEscape(name) +
           "\": " + jsonNumber(static_cast<double>(c->value()));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + jsonEscape(name) + "\": " + jsonNumber(g->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + jsonEscape(name) +
           "\": {\"count\": " + jsonNumber(static_cast<double>(h->count())) +
           ", \"sum\": " + jsonNumber(h->sum()) + ", \"buckets\": [";
    const auto& counts = h->bucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ", ";
      // The overflow bucket has no finite upper bound: "le" is null.
      out += "{\"le\": ";
      out += i < h->bounds().size() ? jsonNumber(h->bounds()[i]) : "null";
      out += ", \"count\": " + jsonNumber(static_cast<double>(counts[i])) + "}";
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"series\": {";
  first = true;
  for (const auto& [name, s] : series_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + jsonEscape(name) + "\": [";
    const auto& pts = s->points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i > 0) out += ", ";
      // Appended piecewise: GCC 12's -Wrestrict misfires on the inlined
      // `"[" + std::string&&` concatenation chain at -O2 (GCC PR105651).
      out += "[";
      out += jsonNumber(toSeconds(pts[i].first));
      out += ", ";
      out += jsonNumber(pts[i].second);
      out += "]";
    }
    out += "]";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool MetricsRegistry::writeJsonFile(const std::string& path) const {
  return writeTextFile(path, toJson());
}

}  // namespace tlbsim::obs
