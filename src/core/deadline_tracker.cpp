#include "core/deadline_tracker.hpp"

#include <algorithm>
#include <cstddef>

namespace tlbsim::core {

SimTime DeadlineTracker::percentile(double p, SimTime fallback) const {
  if (samples_.empty()) return fallback;
  ranked_.assign(samples_.begin(), samples_.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto idx = std::min(
      static_cast<std::size_t>(
          clamped / 100.0 * static_cast<double>(ranked_.size() - 1) + 0.5),
      ranked_.size() - 1);
  // The element a full sort would put at idx, without sorting the rest.
  const auto at = ranked_.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(ranked_.begin(), at, ranked_.end());
  return *at;
}

}  // namespace tlbsim::core
