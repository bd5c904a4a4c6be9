// Timestamped series for the paper's "instantaneous" plots (Figs. 4(a),
// 8, 9(b)): reordering ratio, queueing delay and throughput over time.
#pragma once

#include <utility>
#include <vector>

#include "util/units.hpp"

namespace tlbsim::stats {

class TimeSeries {
 public:
  void add(SimTime t, double v) { points_.emplace_back(t, v); }

  const std::vector<std::pair<SimTime, double>>& points() const {
    return points_;
  }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  double mean() const {
    if (points_.empty()) return 0.0;
    double s = 0.0;
    for (const auto& [t, v] : points_) s += v;
    return s / static_cast<double>(points_.size());
  }

  double max() const {
    double m = 0.0;
    for (const auto& [t, v] : points_) {
      if (v > m) m = v;
    }
    return m;
  }

 private:
  std::vector<std::pair<SimTime, double>> points_;
};

}  // namespace tlbsim::stats
