// Small helpers shared by load-balancing schemes: one view of each uplink
// (its wait, its lookup by port, its smoothed wait) and one least-cost
// pick, so every scheme reads the queues the same way and owns only its
// rule for when a flow may leave its path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/uplink_selector.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {

/// Expected time for a newly-arriving 1500 B packet to clear a port
/// (net::PortView::wait). The view stores it, updated by the port's link
/// on every queue change, so a decision compares waits without
/// recomputing one per port.
inline double drainTime(const net::PortView& u) { return u.wait; }

/// Index (into `uplinks`) of the port with the least `cost(view)`; ties
/// are broken uniformly at random so parallel queues don't synchronize.
/// Draws nothing for the first port and one number per later tie.
template <typename Cost>
std::size_t leastCostIndex(const net::UplinkView& uplinks, Rng& rng,
                           Cost&& cost) {
  std::size_t best = 0;
  double bestCost = cost(uplinks[0]);
  std::uint64_t nTied = 1;
  for (std::size_t i = 1; i < uplinks.size(); ++i) {
    const double c = cost(uplinks[i]);
    if (c < bestCost) {
      best = i;
      bestCost = c;
      nTied = 1;
    } else if (c == bestCost) {
      // Reservoir-sample among ties for a uniform choice in one pass.
      ++nTied;
      if (rng.uniformInt(nTied) == 0) best = i;
    }
  }
  return best;
}

/// Index (into `uplinks`) of the port with the least expected wait.
inline std::size_t shortestQueueIndex(const net::UplinkView& uplinks,
                                      Rng& rng) {
  // A lambda, not the function itself, so the per-port cost is a direct
  // call the compiler inlines on the per-packet spray path.
  return leastCostIndex(uplinks, rng,
                        [](const net::PortView& u) { return drainTime(u); });
}

/// The view of `port` within the group, or null if it is not there. The
/// switch masks downed uplinks out of the view it hands selectors, so a
/// cached decision (flowlet table entry, flow placement, per-flow hash)
/// pointing at a port that is no longer in the view is stale and must be
/// re-made. Every scheme shares this one staleness policy: if the fault
/// model ever grows softer states (draining, probation), this is the
/// single place to teach selectors about them.
inline const net::PortView* findPort(const net::UplinkView& uplinks,
                                     int port) {
  for (const auto& u : uplinks) {
    if (u.port == port) return &u;
  }
  return nullptr;
}

/// Each uplink's expected wait, smoothed by a scheme's control tick over a
/// few intervals so a decision sees sustained congestion rather than the
/// DCTCP sawtooth's instantaneous phase. Indexed by port number.
class SmoothedWaits {
 public:
  static constexpr double kGain = 0.25;

  /// Fold one tick's drain time of every port in `view`. A port's first
  /// sample seeds its average; the usual update then applies.
  void sample(const net::UplinkView& view) {
    for (const auto& u : view) {
      const auto i = static_cast<std::size_t>(u.port);
      if (i >= waits_.size()) waits_.resize(i + 1);
      std::optional<double>& w = waits_[i];
      const double wait = drainTime(u);
      if (!w.has_value()) w = wait;
      *w = (1.0 - kGain) * *w + kGain * wait;
    }
  }

  /// The smoothed wait of `port` (seconds), or `fallback` before any tick
  /// has sampled it (it was down at every tick so far).
  double get(int port, double fallback) const {
    const auto i = static_cast<std::size_t>(port);
    return i < waits_.size() ? waits_[i].value_or(fallback) : fallback;
  }

 private:
  std::vector<std::optional<double>> waits_;
};

}  // namespace tlbsim::lb
