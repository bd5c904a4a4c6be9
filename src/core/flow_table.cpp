#include "core/flow_table.hpp"

namespace tlbsim::core {

void FlowTable::onFlowStart(FlowId id, SimTime now) {
  (void)touch(id, now);  // every flow starts short (paper §5)
}

void FlowTable::onFlowEnd(FlowId id) {
  flows_.erase(id, [this](FlowId, FlowEntry& entry) { retire(entry); });
}

FlowEntry& FlowTable::touch(FlowId id, SimTime now) {
  // A table at kMaxTrackedFlows retires its least-recently-seen entry
  // to admit the new flow (same accounting as a lost-FIN purge).
  auto result = flows_.touch(
      id, now, [this](FlowId, FlowEntry& victim) { retire(victim); });
  if (result.inserted) ++shortCount_;  // SYN may be lost / predate the table
  return result.state;
}

bool FlowTable::recordPayload(FlowEntry& entry, ByteCount payload) {
  entry.bytesSeen += payload;
  if (!entry.isLong && entry.bytesSeen > cfg_.shortFlowThreshold) {
    entry.isLong = true;
    --shortCount_;
    ++longCount_;
    return true;
  }
  return false;
}

void FlowTable::purgeIdle(SimTime now) {
  flows_.purgeIdle(now, [this](FlowId, FlowEntry& entry) { retire(entry); });
}

void FlowTable::retire(FlowEntry& entry) {
  if (entry.isLong) {
    --longCount_;
  } else {
    --shortCount_;
    // A retired short flow is a completed transfer: fold its size into the
    // X estimate (zero-byte entries are pure-ACK reverse flows; skip them).
    if (entry.bytesSeen > 0_B) {
      meanShortSize_ = (1.0 - cfg_.shortSizeGain) * meanShortSize_ +
                       cfg_.shortSizeGain * static_cast<double>(entry.bytesSeen.bytes());
    }
  }
}

}  // namespace tlbsim::core
