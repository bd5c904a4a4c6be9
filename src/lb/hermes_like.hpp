// Hermes-like cautious rerouting (Zhang et al., SIGCOMM 2017), switch-local
// approximation.
//
// Hermes reroutes a flow only when (a) the flow has sent more than a
// threshold since its last move, and (b) the move is *judged beneficial*
// from sensed path conditions, with hysteresis so borderline differences
// never trigger. The original senses RTT/ECN at end hosts; the quantities
// available at a leaf switch are per-uplink smoothed waits (queue drain +
// serialization + cable delay), which we use as the condition signal —
// the same caution structure on local information.
#pragma once

#include <unordered_map>

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
#include "sim/simulator.hpp"
#include "util/flow_key.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace tlbsim::lb {

class HermesLike final : public net::UplinkSelector {
 public:
  /// Minimum bytes a flow must send between reroutes (original: ~100KB).
  static constexpr ByteCount kRerouteThreshold = 100 * kKB;
  /// A path is "good" if its smoothed wait is below this, "gray"
  /// in between, "bad" above 3x (Hermes' three-way classification).
  static constexpr SimTime kGoodWait = microseconds(100);
  /// Condition-smoothing gain per control tick.
  static constexpr double kGain = 0.25;
  static constexpr SimTime kTick = microseconds(500);

  explicit HermesLike(std::uint64_t seed) : rng_(seed) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    const SimTime now = sim_ != nullptr ? sim_->now() : SimTime{};
    State& st = flows_.touch(pkt.flow, now).state;
    if (pkt.payload > 0_B) st.bytesSinceMove += pkt.payload;

    if (st.port < 0 || !portUsable(uplinks, st.port)) {
      st.port = pickGood(uplinks);
      st.bytesSinceMove = 0_B;
      return st.port;
    }
    // Cautious rerouting: only consider moving when enough has been sent,
    // the current path is NOT good, and a good path exists.
    if (st.bytesSinceMove >= kRerouteThreshold &&
        classify(st.port, uplinks) != Condition::kGood) {
      const int candidate = pickGood(uplinks);
      if (candidate != st.port &&
          classify(candidate, uplinks) == Condition::kGood) {
        const int prev = st.port;
        st.port = candidate;
        st.bytesSinceMove = 0_B;
        ++reroutes_;
        if (flowProbe_ != nullptr) {
          flowProbe_->onDecision(pkt.flow, now,
                                 obs::DecisionKind::kCautiousReroute,
                                 static_cast<double>(prev),
                                 static_cast<double>(candidate));
        }
      }
    }
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "Hermes-like"; }

  FlowStateTableBase* flowState() override { return &flows_; }

  std::uint64_t reroutes() const { return reroutes_; }
  std::size_t trackedFlows() const { return flows_.size(); }

 private:
  enum class Condition { kGood, kGray, kBad };

  double waitOf(int port, const net::UplinkView& uplinks) const {
    if (auto it = condition_.find(port); it != condition_.end()) {
      return it->second;
    }
    const double w = drainTimeOfPort(uplinks, port);
    return w >= 0.0 ? w : 0.0;
  }

  Condition classify(int port, const net::UplinkView& uplinks) const {
    const double w = waitOf(port, uplinks);
    const double good = toSeconds(kGoodWait);
    if (w <= good) return Condition::kGood;
    if (w <= 3.0 * good) return Condition::kGray;
    return Condition::kBad;
  }

  int pickGood(const net::UplinkView& uplinks) {
    // Least smoothed wait, ties random.
    int best = -1;
    double bestWait = 0.0;
    int ties = 0;
    for (const auto& u : uplinks) {
      const double w = waitOf(u.port, uplinks);
      if (best < 0 || w < bestWait) {
        best = u.port;
        bestWait = w;
        ties = 1;
      } else if (w == bestWait) {
        ++ties;
        if (rng_.uniformInt(static_cast<std::uint64_t>(ties)) == 0) {
          best = u.port;
        }
      }
    }
    return best;
  }

  struct State {
    int port = -1;
    ByteCount bytesSinceMove;
  };

  Rng rng_;
  net::Switch* switch_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  FlowStateTable<State> flows_;
  std::unordered_map<int, double> condition_;  ///< smoothed wait per port
  std::uint64_t reroutes_ = 0;
};

}  // namespace tlbsim::lb
