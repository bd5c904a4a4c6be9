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

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
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
  /// Condition-sensing period (the waits are smoothed once per tick).
  static constexpr SimTime kTick = microseconds(500);

  explicit HermesLike(std::uint64_t seed) : rng_(seed) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    const SimTime t = now();
    State& st = flows_.touch(pkt.flow, t).state;
    if (pkt.payload > 0_B) st.bytesSinceMove += pkt.payload;

    const net::PortView* cur = findPort(uplinks, st.port);
    if (cur == nullptr) {
      st.port = pickGood(uplinks).port;
      st.bytesSinceMove = 0_B;
      return st.port;
    }
    // Cautious rerouting: only consider moving when enough has been sent,
    // the current path is NOT good, and a good path exists.
    if (st.bytesSinceMove >= kRerouteThreshold &&
        classify(*cur) != Condition::kGood) {
      const net::PortView& candidate = pickGood(uplinks);
      if (candidate.port != st.port &&
          classify(candidate) == Condition::kGood) {
        const int prev = st.port;
        st.port = candidate.port;
        st.bytesSinceMove = 0_B;
        ++reroutes_;
        if (flowProbe_ != nullptr) {
          flowProbe_->onDecision(pkt.flow, t,
                                 obs::DecisionKind::kCautiousReroute,
                                 static_cast<double>(prev),
                                 static_cast<double>(candidate.port));
        }
      }
    }
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "Hermes-like"; }

  FlowStateTableBase* flowState() override { return &flows_; }

  std::uint64_t reroutes() const { return reroutes_; }

 private:
  enum class Condition { kGood, kGray, kBad };

  /// The port's smoothed wait; its current one before the first tick.
  double waitOf(const net::PortView& u) const {
    return waits_.get(u.port, drainTime(u));
  }

  Condition classify(const net::PortView& u) const {
    const double w = waitOf(u);
    const double good = toSeconds(kGoodWait);
    if (w <= good) return Condition::kGood;
    if (w <= 3.0 * good) return Condition::kGray;
    return Condition::kBad;
  }

  /// Least smoothed wait, ties random.
  const net::PortView& pickGood(const net::UplinkView& uplinks) {
    const auto cost = [this](const auto& u) { return waitOf(u); };
    return uplinks[leastCostIndex(uplinks, rng_, cost)];
  }

  struct State {
    int port = -1;
    ByteCount bytesSinceMove;
  };

  Rng rng_;
  FlowStateTable<State> flows_;
  SmoothedWaits waits_;  ///< the condition signal, per port
  std::uint64_t reroutes_ = 0;
};

}  // namespace tlbsim::lb
