// Deadline statistics (paper §5): when applications do tag their flows
// with deadlines, TLB "deduces the specified flow deadline from the
// statistics of network traffic" — it tracks the distribution of observed
// deadlines and uses a configured percentile (25th by default, §6.3) as
// the model's D.
//
// A reservoir of at most `capacity` samples bounds a switch's memory:
// once full, new samples replace random old ones, so the estimate tracks
// the current traffic mix rather than all history. Until it fills it
// holds only the samples seen, so a switch whose flows carry no deadline
// holds nothing.
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace tlbsim::core {

class DeadlineTracker {
 public:
  explicit DeadlineTracker(std::size_t capacity = 1024,
                           std::uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {}

  /// Record one observed flow deadline (relative FCT budget).
  void observe(SimTime deadline) {
    if (deadline <= 0_ns) return;
    ++observed_;
    if (samples_.size() < capacity_) {
      samples_.push_back(deadline);
      return;
    }
    // Reservoir sampling over the stream keeps a uniform sample window.
    const std::uint64_t slot = rng_.uniformInt(observed_);
    if (slot < capacity_) {
      samples_[static_cast<std::size_t>(slot)] = deadline;
    }
  }

  /// The p-th percentile of observed deadlines (p in [0, 100]), or
  /// `fallback` when no deadline has been seen yet. Selects the rank in a
  /// kept copy of the reservoir, so a call allocates only when the
  /// reservoir has grown since the last.
  SimTime percentile(double p, SimTime fallback) const;

  std::size_t sampleCount() const { return samples_.size(); }
  std::uint64_t observedCount() const { return observed_; }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<SimTime> samples_;
  /// percentile()'s work buffer: the reservoir, partly reordered.
  mutable std::vector<SimTime> ranked_;
  std::uint64_t observed_ = 0;
};

}  // namespace tlbsim::core
