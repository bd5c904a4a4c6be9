// Streaming and batch summary statistics: mean and percentiles.
#pragma once

#include <cstddef>
#include <vector>

namespace tlbsim {

/// Accumulates double-valued samples and answers mean / percentile
/// queries. Percentile queries sort lazily (cached until the next insert).
class SampleSet {
 public:
  void add(double v);
  void clear();

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double sum() const { return sum_; }
  double mean() const;
  double min() const;
  double max() const;

  /// p in [0, 100]. Uses nearest-rank on the sorted samples.
  double percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sortedValid_ = false;
  double sum_ = 0.0;
};

/// Streaming mean/variance (Welford) for cheap running aggregates.
class RunningStats {
 public:
  void add(double v) {
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
    if (v < min_ || n_ == 1) min_ = v;
    if (v > max_ || n_ == 1) max_ = v;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace tlbsim
