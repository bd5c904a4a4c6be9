// CONGA (local mode): congestion-aware flowlet switching.
//
// The full CONGA (Alizadeh et al., SIGCOMM 2014) distributes per-path
// congestion metrics between leaves via feedback piggybacked on data
// packets. This is the switch-local variant the paper describes as
// "CONGA-Local": each uplink's congestion is measured with a DRE
// (Discounting Rate Estimator — bytes routed recently, exponentially
// aged), and each *new flowlet* picks the uplink minimizing the maximum
// of (normalized DRE, normalized queue wait). Within a flowlet the path
// is pinned, so reordering stays rare.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
#include "sim/simulator.hpp"
#include "util/flow_key.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace tlbsim::lb {

class Conga final : public net::UplinkSelector {
 public:
  /// DRE aging period T_dre; the estimator halves every ~T_dre/alpha.
  static constexpr SimTime kDreInterval = microseconds(160);
  static constexpr double kDreAlpha = 0.1;

  explicit Conga(std::uint64_t seed,
                 SimTime flowletTimeout = microseconds(500))
      : rng_(seed), timeout_(flowletTimeout) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    const SimTime now = sim_ != nullptr ? sim_->now() : SimTime{};
    const auto entry = flows_.touch(pkt.flow, now);
    State& st = entry.state;
    const bool newFlowlet = st.port < 0 ||
                            (now - entry.prevSeen) > timeout_ ||
                            !portUsable(uplinks, st.port);
    if (newFlowlet) {
      const int prev = st.port;
      st.port = leastCongested(uplinks);
      ++flowlets_;
      if (flowProbe_ != nullptr && prev >= 0 && prev != st.port) {
        flowProbe_->onDecision(pkt.flow, now, obs::DecisionKind::kNewFlowlet,
                               static_cast<double>(prev),
                               static_cast<double>(st.port));
      }
    }
    dre_[st.port] += static_cast<double>(pkt.size.bytes());
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "CONGA"; }

  FlowStateTableBase* flowState() override { return &flows_; }

  std::uint64_t flowletsStarted() const { return flowlets_; }
  double dreOf(int port) const {
    auto it = dre_.find(port);
    return it != dre_.end() ? it->second : 0.0;
  }

 private:
  int leastCongested(const net::UplinkView& uplinks) {
    // Normalize DRE against the link rate over the aging window and take
    // max(dre, queue) as the congestion metric, as CONGA does.
    int best = -1;
    double bestMetric = 0.0;
    int ties = 0;
    for (const auto& u : uplinks) {
      const double window = toSeconds(kDreInterval) / kDreAlpha;
      const double cap = (u.rateBps > 0 ? u.rateBps / 8.0 : 1.0) * window;
      const double dreNorm = dreOf(u.port) / cap;
      const double queueNorm =
          u.rateBps > 0
              ? static_cast<double>(u.queueBytes.bytes()) * 8.0 / u.rateBps /
                    toSeconds(timeout_)
              : 0.0;
      const double metric = std::max(dreNorm, queueNorm) + u.linkDelaySec;
      if (best < 0 || metric < bestMetric) {
        best = u.port;
        bestMetric = metric;
        ties = 1;
      } else if (metric == bestMetric) {
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
  };

  Rng rng_;
  SimTime timeout_;
  sim::Simulator* sim_ = nullptr;
  FlowStateTable<State> flows_;
  std::unordered_map<int, double> dre_;  ///< keyed by port, not FlowId
  std::uint64_t flowlets_ = 0;
};

}  // namespace tlbsim::lb
