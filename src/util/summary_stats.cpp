#include "util/summary_stats.hpp"

#include <algorithm>
#include <cmath>

namespace tlbsim {

void SampleSet::add(double v) {
  samples_.push_back(v);
  sum_ += v;
  sortedValid_ = false;
}

void SampleSet::clear() {
  samples_.clear();
  sorted_.clear();
  sortedValid_ = false;
  sum_ = 0.0;
}

double SampleSet::mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

void SampleSet::ensureSorted() const {
  if (!sortedValid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
  }
}

double SampleSet::min() const {
  ensureSorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double SampleSet::max() const {
  ensureSorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double SampleSet::percentile(double p) const {
  ensureSorted();
  if (sorted_.empty()) return 0.0;
  if (p <= 0.0) return sorted_.front();
  if (p >= 100.0) return sorted_.back();
  // Nearest-rank with linear interpolation between adjacent order statistics.
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

}  // namespace tlbsim
