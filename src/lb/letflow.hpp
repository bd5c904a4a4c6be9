// LetFlow: flowlet switching with random path choice. A flow keeps its
// path while packets arrive within the flowlet timeout of each other; an
// inactivity gap larger than the timeout starts a new flowlet on a random
// uplink. Flowlet sizes then adapt to path congestion automatically.
#pragma once

#include "lb/flow_state_table.hpp"
#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "obs/flow_probe.hpp"
#include "sim/simulator.hpp"
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
    const SimTime now = sim_ != nullptr ? sim_->now() : SimTime{};
    const auto entry = flows_.touch(pkt.flow, now);
    State& st = entry.state;
    const bool newFlowlet =
        st.port < 0 || (now - entry.prevSeen) > timeout_ ||
        !portUsable(uplinks, st.port);
    if (newFlowlet) {
      const int prev = st.port;
      st.port = uplinks[rng_.uniformInt(uplinks.size())].port;
      ++flowlets_;
      if (flowProbe_ != nullptr && prev >= 0 && prev != st.port) {
        flowProbe_->onDecision(pkt.flow, now, obs::DecisionKind::kNewFlowlet,
                               static_cast<double>(prev),
                               static_cast<double>(st.port));
      }
    }
    return st.port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "LetFlow"; }

  FlowStateTableBase* flowState() override { return &flows_; }

  SimTime flowletTimeout() const { return timeout_; }
  std::uint64_t flowletsStarted() const { return flowlets_; }
  std::size_t trackedFlows() const { return flows_.size(); }

 private:
  struct State {
    int port = -1;
  };

  Rng rng_;
  SimTime timeout_;
  sim::Simulator* sim_ = nullptr;
  FlowStateTable<State> flows_;
  std::uint64_t flowlets_ = 0;
};

}  // namespace tlbsim::lb
