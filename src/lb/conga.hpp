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
#include <vector>

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
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
    const SimTime t = now();
    const auto entry = flows_.touch(pkt.flow, t);
    State& st = entry.state;
    const bool newFlowlet = st.port < 0 ||
                            (t - entry.prevSeen) > timeout_ ||
                            findPort(uplinks, st.port) == nullptr;
    if (newFlowlet) {
      const int prev = st.port;
      const auto cost = [this](const auto& u) { return congestion(u); };
      st.port = uplinks[leastCostIndex(uplinks, rng_, cost)].port;
      ++flowlets_;
      if (flowProbe_ != nullptr && prev >= 0 && prev != st.port) {
        flowProbe_->onDecision(pkt.flow, t, obs::DecisionKind::kNewFlowlet,
                               static_cast<double>(prev),
                               static_cast<double>(st.port));
      }
    }
    const auto port = static_cast<std::size_t>(st.port);
    if (port >= dre_.size()) dre_.resize(port + 1);
    dre_[port] += static_cast<double>(pkt.size.bytes());
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "CONGA"; }

  FlowStateTableBase* flowState() override { return &flows_; }

  std::uint64_t flowletsStarted() const { return flowlets_; }
  double dreOf(int port) const {
    const auto i = static_cast<std::size_t>(port);
    return i < dre_.size() ? dre_[i] : 0.0;
  }

 private:
  /// Normalize DRE against the link rate over the aging window and take
  /// max(dre, queue) as the congestion metric, as CONGA does.
  double congestion(const net::PortView& u) const {
    const double window = toSeconds(kDreInterval) / kDreAlpha;
    const double cap = (u.rateBps > 0 ? u.rateBps / 8.0 : 1.0) * window;
    const double dreNorm = dreOf(u.port) / cap;
    const double queueNorm =
        u.rateBps > 0
            ? static_cast<double>(u.queueBytes.bytes()) * 8.0 / u.rateBps /
                  toSeconds(timeout_)
            : 0.0;
    return std::max(dreNorm, queueNorm) + u.linkDelaySec;
  }

  struct State {
    int port = -1;
  };

  Rng rng_;
  SimTime timeout_;
  FlowStateTable<State> flows_;
  /// DRE per port number, grown on first use: unit tests drive a Conga
  /// that was never attached to a switch.
  std::vector<double> dre_;
  std::uint64_t flowlets_ = 0;
};

}  // namespace tlbsim::lb
