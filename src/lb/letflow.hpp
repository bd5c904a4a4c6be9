// LetFlow: flowlet switching with random path choice. A flow keeps its
// path while packets arrive within the flowlet timeout of each other; an
// inactivity gap larger than the timeout starts a new flowlet on a random
// uplink. Flowlet sizes then adapt to path congestion automatically.
#pragma once

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
#include "util/flow_key.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace tlbsim::lb {

class LetFlow final : public net::UplinkSelector {
 public:
  explicit LetFlow(std::uint64_t seed,
                   SimTime flowletTimeout = microseconds(150))
      : rng_(seed), timeout_(flowletTimeout) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    const SimTime t = now();
    const auto entry = flows_.touch(pkt.flow, t);
    State& st = entry.state;
    const bool newFlowlet =
        st.port < 0 || (t - entry.prevSeen) > timeout_ ||
        findPort(uplinks, st.port) == nullptr;
    if (newFlowlet) {
      const int prev = st.port;
      st.port = uplinks[rng_.uniformInt(uplinks.size())].port;
      ++flowlets_;
      if (flowProbe_ != nullptr && prev >= 0 && prev != st.port) {
        flowProbe_->onDecision(pkt.flow, t, obs::DecisionKind::kNewFlowlet,
                               static_cast<double>(prev),
                               static_cast<double>(st.port));
      }
    }
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "LetFlow"; }

  FlowStateTableBase* flowState() override { return &flows_; }

  std::uint64_t flowletsStarted() const { return flowlets_; }

 private:
  struct State {
    int port = -1;
  };

  Rng rng_;
  SimTime timeout_;
  FlowStateTable<State> flows_;
  std::uint64_t flowlets_ = 0;
};

}  // namespace tlbsim::lb
