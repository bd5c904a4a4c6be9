#include "obs/flow_probe.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/run_summary.hpp"

namespace tlbsim::obs {

const char* decisionKindName(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kReclassifyLong:
      return "reclassify_long";
    case DecisionKind::kLongReroute:
      return "long_reroute";
    case DecisionKind::kNewFlowlet:
      return "new_flowlet";
    case DecisionKind::kCautiousReroute:
      return "cautious_reroute";
    case DecisionKind::kGranularitySwitch:
      return "granularity_switch";
    case DecisionKind::kFaultReroute:
      return "fault_reroute";
  }
  return "unknown";
}

namespace {

/// All kinds in numeric order, for the meta line's schema legend.
constexpr DecisionKind kAllKinds[] = {
    DecisionKind::kReclassifyLong,    DecisionKind::kLongReroute,
    DecisionKind::kNewFlowlet,        DecisionKind::kCautiousReroute,
    DecisionKind::kGranularitySwitch, DecisionKind::kFaultReroute,
};

}  // namespace

const FlowRecord* FlowProbe::find(FlowId id) const {
  const std::uint32_t* index = index_.find(id);
  return index != nullptr ? &records_[*index] : nullptr;
}

FlowRecord* FlowProbe::liveRecord(FlowId id) {
  // const_cast is confined to reusing the one lookup.
  return const_cast<FlowRecord*>(find(id));
}

void FlowProbe::declareFlow(FlowId id, std::int32_t src, std::int32_t dst,
                            ByteCount size, SimTime start, bool isShort) {
  if (index_.find(id) != nullptr) return;  // already declared
  if (records_.size() >= cfg_.maxFlows) {
    ++flowsNotTracked_;
    return;
  }
  FlowRecord rec;
  rec.id = id;
  rec.src = src;
  rec.dst = dst;
  rec.size = size;
  rec.start = start;
  rec.isShort = isShort;
  index_.assign(id, static_cast<std::uint32_t>(records_.size()));
  records_.push_back(std::move(rec));
}

void FlowProbe::onUplinkForward(int leaf, int uplink, FlowId flow,
                                ByteCount wireBytes, ByteCount payload, SimTime now) {
  matrix_.record(leaf, uplink, wireBytes);
  if (payload <= 0_B) return;  // ACKs traverse the reverse leaf's uplinks
  FlowRecord* rec = liveRecord(flow);
  if (rec == nullptr) return;
  if (uplink >= 0) {
    const auto slot = static_cast<std::size_t>(uplink);
    if (slot >= rec->uplinks.size()) rec->uplinks.resize(slot + 1);
    ++rec->uplinks[slot].packets;
    rec->uplinks[slot].bytes += static_cast<std::uint64_t>(wireBytes.bytes());
  }
  if (rec->lastUplink >= 0 && rec->lastUplink != uplink) {
    ++rec->pathChanges;
    rec->lastPathChangeAt = now;
  }
  rec->lastUplink = uplink;
}

void FlowProbe::onRetransmit(FlowId flow, SimTime now) {
  FlowRecord* rec = liveRecord(flow);
  if (rec == nullptr) return;
  ++rec->retransmitsSent;
  rec->lastRetransmitAt = now;
}

void FlowProbe::onOutOfOrder(FlowId flow, SimTime now) {
  static_cast<void>(now);
  FlowRecord* rec = liveRecord(flow);
  if (rec == nullptr) return;
  ++rec->outOfOrder;
  // Attribution: a path change at-or-after the last retransmission is the
  // likelier cause (reordering across unequal paths); otherwise a
  // retransmission filling earlier holes explains the gap.
  if (rec->lastPathChangeAt >= 0_ns &&
      rec->lastPathChangeAt >= rec->lastRetransmitAt) {
    ++rec->oooPathChange;
  } else if (rec->lastRetransmitAt >= 0_ns) {
    ++rec->oooLoss;
  }
}

void FlowProbe::onDecision(FlowId flow, SimTime now, DecisionKind kind,
                           double a0, double a1) {
  FlowRecord* rec = liveRecord(flow);
  if (rec == nullptr) return;
  if (rec->decisions.size() >= cfg_.maxDecisionsPerFlow) {
    ++rec->decisionsNotStored;
    return;
  }
  DecisionEvent ev;
  ev.t = now;
  ev.kind = kind;
  ev.a0 = a0;
  ev.a1 = a1;
  rec->decisions.push_back(ev);
}

void FlowProbe::finishFlow(FlowId id, bool completed, SimTime fct,
                           bool missedDeadline, ByteCount bytesAcked,
                           std::uint64_t dataPacketsSent,
                           std::uint64_t fastRetransmits,
                           std::uint64_t timeouts) {
  FlowRecord* rec = liveRecord(id);
  if (rec == nullptr) return;
  rec->completed = completed;
  rec->fct = fct;
  rec->missedDeadline = missedDeadline;
  rec->bytesAcked = bytesAcked;
  rec->dataPacketsSent = dataPacketsSent;
  rec->fastRetransmits = fastRetransmits;
  rec->timeouts = timeouts;
}

std::vector<const FlowRecord*> FlowProbe::sortedRecords() const {
  std::vector<const FlowRecord*> out;
  out.reserve(records_.size());
  for (const FlowRecord& rec : records_) out.push_back(&rec);
  std::sort(out.begin(), out.end(),
            [](const FlowRecord* a, const FlowRecord* b) {
              return a->id < b->id;
            });
  return out;
}

void FlowProbe::fold(RunSummary& summary) const {
  std::uint64_t dataPackets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t ooo = 0;
  std::uint64_t oooPath = 0;
  std::uint64_t oooLoss = 0;
  std::uint64_t pathChanges = 0;
  std::uint64_t decisions = 0;
  std::uint64_t decisionsDropped = 0;
  for (const FlowRecord& rec : records_) {
    dataPackets += rec.dataPacketsSent;
    retransmits += rec.retransmitsSent;
    ooo += rec.outOfOrder;
    oooPath += rec.oooPathChange;
    oooLoss += rec.oooLoss;
    pathChanges += rec.pathChanges;
    decisions += rec.decisions.size();
    decisionsDropped += rec.decisionsNotStored;
  }
  const double flows = static_cast<double>(records_.size());
  summary.set("flows.tracked", flows);
  summary.set("flows.not_tracked", static_cast<double>(flowsNotTracked_));
  summary.set("flows.data_packets", static_cast<double>(dataPackets));
  summary.set("flows.retransmits", static_cast<double>(retransmits));
  summary.set("flows.ooo", static_cast<double>(ooo));
  summary.set("flows.ooo_path_change", static_cast<double>(oooPath));
  summary.set("flows.ooo_loss", static_cast<double>(oooLoss));
  summary.set("flows.reorder_rate",
              dataPackets > 0
                  ? static_cast<double>(ooo) / static_cast<double>(dataPackets)
                  : 0.0);
  summary.set("flows.path_changes", static_cast<double>(pathChanges));
  summary.set("flows.path_churn",
              flows > 0.0 ? static_cast<double>(pathChanges) / flows : 0.0);
  summary.set("flows.decisions", static_cast<double>(decisions));
  summary.set("flows.decisions_not_stored",
              static_cast<double>(decisionsDropped));
  summary.set("flows.matrix_max_imbalance", matrix_.maxImbalance());
  summary.set("flows.matrix_mean_imbalance", matrix_.meanImbalance());
}

std::string FlowProbe::toNdjson(
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::string out = "{\"type\": \"meta\"";
  for (const auto& [key, value] : meta) {
    out += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) + "\"";
  }
  out += ", \"decision_kinds\": [";
  bool firstKind = true;
  for (const DecisionKind kind : kAllKinds) {
    if (!firstKind) out += ", ";
    firstKind = false;
    out += "\"";
    out += decisionKindName(kind);
    out += "\"";
  }
  out += "], \"flows_not_tracked\": " +
         jsonNumber(static_cast<double>(flowsNotTracked_));
  out += "}\n";

  for (const FlowRecord* rec : sortedRecords()) {
    out += "{\"type\": \"flow\", \"id\": " +
           jsonNumber(static_cast<double>(rec->id));
    out += ", \"src\": " + jsonNumber(rec->src);
    out += ", \"dst\": " + jsonNumber(rec->dst);
    out += ", \"size\": " + jsonNumber(static_cast<double>(rec->size.bytes()));
    out += ", \"start_s\": " + jsonNumber(toSeconds(rec->start));
    out += ", \"short\": ";
    out += rec->isShort ? "true" : "false";
    out += ", \"completed\": ";
    out += rec->completed ? "true" : "false";
    out += ", \"fct_s\": " + jsonNumber(toSeconds(rec->fct));
    out += ", \"missed_deadline\": ";
    out += rec->missedDeadline ? "true" : "false";
    out += ", \"bytes_acked\": " +
           jsonNumber(static_cast<double>(rec->bytesAcked.bytes()));
    out += ", \"data_packets\": " +
           jsonNumber(static_cast<double>(rec->dataPacketsSent));
    out += ", \"fast_retransmits\": " +
           jsonNumber(static_cast<double>(rec->fastRetransmits));
    out += ", \"timeouts\": " + jsonNumber(static_cast<double>(rec->timeouts));
    out += ", \"retransmits\": " +
           jsonNumber(static_cast<double>(rec->retransmitsSent));
    out += ", \"ooo\": " + jsonNumber(static_cast<double>(rec->outOfOrder));
    out += ", \"ooo_path_change\": " +
           jsonNumber(static_cast<double>(rec->oooPathChange));
    out += ", \"ooo_loss\": " + jsonNumber(static_cast<double>(rec->oooLoss));
    out += ", \"path_changes\": " +
           jsonNumber(static_cast<double>(rec->pathChanges));
    out += ", \"uplinks\": [";
    bool firstSlot = true;
    for (std::size_t slot = 0; slot < rec->uplinks.size(); ++slot) {
      const UplinkShare& share = rec->uplinks[slot];
      if (share.packets == 0) continue;  // sparse: skip untouched slots
      if (!firstSlot) out += ", ";
      firstSlot = false;
      out += "[";
      out += jsonNumber(static_cast<double>(slot));
      out += ", ";
      out += jsonNumber(static_cast<double>(share.packets));
      out += ", ";
      out += jsonNumber(static_cast<double>(share.bytes));
      out += "]";
    }
    out += "], \"decisions\": [";
    bool firstDecision = true;
    for (const DecisionEvent& ev : rec->decisions) {
      if (!firstDecision) out += ", ";
      firstDecision = false;
      out += "[";
      out += jsonNumber(static_cast<double>(static_cast<int>(ev.kind)));
      out += ", ";
      out += jsonNumber(toSeconds(ev.t));
      out += ", ";
      out += jsonNumber(ev.a0);
      out += ", ";
      out += jsonNumber(ev.a1);
      out += "]";
    }
    out += "], \"decisions_not_stored\": " +
           jsonNumber(static_cast<double>(rec->decisionsNotStored));
    out += "}\n";
  }

  out += "{\"type\": \"path_matrix\", \"matrix\": " + matrix_.toJson() + "}\n";
  return out;
}

bool FlowProbe::writeNdjsonFile(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  return writeTextFile(path, toNdjson(meta));
}

}  // namespace tlbsim::obs
