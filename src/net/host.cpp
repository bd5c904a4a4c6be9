#include "net/host.hpp"

#include "util/check.hpp"

namespace tlbsim::net {

void Host::bind(FlowId flow, PacketHandler* handler) {
  TLBSIM_ASSERT(flow != kInvalidFlow, "%s: bind of the invalid flow id",
                name_.c_str());
  TLBSIM_ASSERT(handler != nullptr, "%s: null handler for flow %llu",
                name_.c_str(), static_cast<unsigned long long>(flow));
  if (2 * (used_ + 1) > demux_.size()) growDemux();
  DemuxSlot& slot = demux_[probe(flow)];
  if (slot.flow == kInvalidFlow) {
    slot.flow = flow;
    ++used_;
  }
  slot.handler = handler;
}

void Host::unbind(FlowId flow) {
  if (demux_.empty() || flow == kInvalidFlow) return;
  std::size_t hole = probe(flow);
  if (demux_[hole].flow != flow) return;  // not bound
  const std::size_t mask = demux_.size() - 1;
  // Backward shift: walk the rest of the probe run and move each entry
  // whose home slot is at or before the hole (cyclically) into it. Every
  // remaining entry then stays reachable from its home without gaps.
  for (std::size_t j = (hole + 1) & mask; demux_[j].flow != kInvalidFlow;
       j = (j + 1) & mask) {
    const std::size_t home = homeSlot(demux_[j].flow, demux_.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      demux_[hole] = demux_[j];
      hole = j;
    }
  }
  demux_[hole] = DemuxSlot{};
  --used_;
}

void Host::growDemux() {
  std::vector<DemuxSlot> old(
      demux_.empty() ? kMinDemuxSlots : 2 * demux_.size());
  old.swap(demux_);
  for (const DemuxSlot& entry : old) {
    if (entry.flow != kInvalidFlow) demux_[probe(entry.flow)] = entry;
  }
}

}  // namespace tlbsim::net
