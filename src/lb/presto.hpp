// Presto: congestion-oblivious load balancing of fixed-size flowcells
// (64 KB by default). Each flow's payload is chopped into cells; successive
// cells advance round-robin through the uplink group from a per-flow,
// hash-derived starting offset.
#pragma once

#include "lb/flow_state_table.hpp"
#include "net/uplink_selector.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::lb {

class Presto final : public net::UplinkSelector {
 public:
  explicit Presto(std::uint64_t salt, ByteCount flowcellBytes = 64 * kKiB)
      : salt_(salt), cellBytes_(flowcellBytes) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    State& st = flows_.touch(pkt.flow, now()).state;
    // The cell is the one owning the packet's FIRST payload byte, so a
    // packet spanning a cell boundary still rides the cell it started in
    // (the byte counter advances afterwards). Control/ACK packets ride
    // the flow's current cell.
    if (pkt.payload > 0_B) {
      st.cell = st.bytes / cellBytes_;
      st.bytes += pkt.payload;
    }
    const std::uint64_t start = flowHash(pkt.flow, salt_);
    return uplinks[(start + static_cast<std::uint64_t>(st.cell)) %
                   uplinks.size()]
        .port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override;

  const char* name() const override { return "Presto"; }

  FlowStateTableBase* flowState() override { return &flows_; }

 private:
  struct State {
    ByteCount bytes;
    std::int64_t cell = 0;
  };

  std::uint64_t salt_;
  ByteCount cellBytes_;
  FlowStateTable<State> flows_;
};

}  // namespace tlbsim::lb
