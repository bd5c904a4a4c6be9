// Fixed-granularity switching: reroute every flow after every `K` data
// packets, regardless of flow type. This is the knob behind the paper's
// motivation study (§2.2): K=1 is packet-level, K→∞ is flow-level, and
// intermediate K emulates any fixed chunking. Destination queue is chosen
// at random (congestion-oblivious).
#pragma once

#include <limits>

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
#include "util/flow_key.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {

class FixedGranularity final : public net::UplinkSelector {
 public:
  /// `packetsPerSwitch` = K. Use kFlowLevel for never-switch behaviour.
  static constexpr std::uint64_t kFlowLevel =
      std::numeric_limits<std::uint64_t>::max();

  FixedGranularity(std::uint64_t seed, std::uint64_t packetsPerSwitch)
      : rng_(seed), k_(packetsPerSwitch) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    const SimTime t = now();
    State& st = flows_.touch(pkt.flow, t).state;
    const bool granularityHit =
        pkt.payload > 0_B && k_ != kFlowLevel && st.sinceSwitch >= k_;
    const bool mustPick =
        st.port < 0 || findPort(uplinks, st.port) == nullptr || granularityHit;
    if (mustPick) {
      const int prev = st.port;
      st.port = uplinks[rng_.uniformInt(uplinks.size())].port;
      st.sinceSwitch = 0;
      if (flowProbe_ != nullptr && granularityHit && prev >= 0 &&
          prev != st.port) {
        flowProbe_->onDecision(pkt.flow, t,
                               obs::DecisionKind::kGranularitySwitch,
                               static_cast<double>(prev),
                               static_cast<double>(st.port));
      }
    }
    if (pkt.payload > 0_B) ++st.sinceSwitch;
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "FixedGranularity"; }

  FlowStateTableBase* flowState() override { return &flows_; }

 private:
  struct State {
    int port = -1;
    std::uint64_t sinceSwitch = 0;
  };

  Rng rng_;
  std::uint64_t k_;
  FlowStateTable<State> flows_;
};

}  // namespace tlbsim::lb
