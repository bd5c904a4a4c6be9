// Per-flow decision telemetry: one record per flow accumulating what the
// transport sent, what arrived out of order (attributed to path changes
// vs. loss), which uplinks carried the flow's data packets, and a bounded
// timeline of the load-balancing decisions that touched the flow (TLB
// granularity switches with the q_th and queue depth that triggered them,
// flowlet path changes, cautious reroutes, post-fault reroutes). A
// PathMatrix rides along, aggregating every forwarded packet into a
// (leaf, uplink) utilization heatmap.
//
// Hot-path contract — identical to MetricsRegistry/EventTrace: components
// hold a raw `FlowProbe*` that stays nullptr until an observer installs
// one, so a run without flow telemetry pays one well-predicted branch per
// instrumentation site and touches no shared state.
//
// Layering: tlbsim_obs sits below net/transport, so the API speaks only in
// unpacked scalars (FlowId, host ids, byte counts, timestamps) — never in
// Packet or net types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/path_matrix.hpp"
#include "util/flow_index.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {

class RunSummary;

/// What kind of load-balancing decision touched a flow. The numeric values
/// are part of the NDJSON schema (decisions serialize as [kind, t, a0, a1])
/// and must stay stable.
enum class DecisionKind : std::uint8_t {
  kReclassifyLong = 0,     ///< TLB short->long; a0 = q_th bytes, a1 = queue bytes
  kLongReroute = 1,        ///< TLB long-flow reroute; a0 = from port, a1 = to port
  kNewFlowlet = 2,         ///< flowlet gap expired; a0 = from port, a1 = to port
  kCautiousReroute = 3,    ///< Hermes-style reroute; a0 = from port, a1 = to port
  kGranularitySwitch = 4,  ///< fixed-granularity repick; a0 = from, a1 = to port
  kFaultReroute = 5,       ///< first packet around a fault; a0 = spine, a1 = delay s
};

/// Stable lowercase name for a DecisionKind (used by the NDJSON meta line
/// and the tlbsim_flows analyzer).
const char* decisionKindName(DecisionKind kind);

/// One load-balancing decision that touched a flow. `a0`/`a1` carry
/// kind-specific context (see DecisionKind).
struct DecisionEvent {
  SimTime t;
  DecisionKind kind = DecisionKind::kReclassifyLong;
  double a0 = 0.0;
  double a1 = 0.0;
};

/// Per-uplink share of one flow's data packets.
struct UplinkShare {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// Everything the probe learned about one flow. Live counters accumulate
/// during the run; the completion fields are filled by finishFlow() from
/// the transport's final state.
struct FlowRecord {
  FlowId id = kInvalidFlow;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  ByteCount size;
  SimTime start;
  bool isShort = false;

  // Filled by finishFlow().
  bool completed = false;
  SimTime fct;
  bool missedDeadline = false;
  ByteCount bytesAcked;
  std::uint64_t dataPacketsSent = 0;
  std::uint64_t fastRetransmits = 0;
  std::uint64_t timeouts = 0;

  // Live counters.
  std::uint64_t retransmitsSent = 0;  ///< wire-accurate (includes go-back-N)
  std::uint64_t outOfOrder = 0;
  std::uint64_t oooPathChange = 0;  ///< OOO arrivals after a path change
  std::uint64_t oooLoss = 0;        ///< OOO arrivals after a retransmit
  std::uint64_t pathChanges = 0;    ///< distinct uplink switches observed
  std::vector<UplinkShare> uplinks;
  std::vector<DecisionEvent> decisions;
  std::uint64_t decisionsNotStored = 0;

  // Attribution state (not serialized).
  int lastUplink = -1;
  SimTime lastPathChangeAt = -1_ns;
  SimTime lastRetransmitAt = -1_ns;
};

/// Accumulates FlowRecords plus a fabric-wide PathMatrix. All mutation
/// entry points are confined by tlbsim_lint to the instrumented decision
/// sites (see tools/tlbsim_lint).
class FlowProbe {
 public:
  struct Config {
    /// Flows tracked per run; extras are counted, not stored (the path
    /// matrix still sees their packets). Generous: a record is ~200 B.
    std::size_t maxFlows = 1u << 20;
    /// Decision-timeline length per flow, mirroring EventTrace's
    /// maxEvents contract: overflow is counted in decisionsNotStored.
    std::size_t maxDecisionsPerFlow = 64;
  };

  FlowProbe() = default;
  explicit FlowProbe(const Config& cfg) : cfg_(cfg) {}

  /// Register a flow before its first packet. Calls past maxFlows are
  /// dropped (flowsNotTracked() counts them); re-declaring an id is a
  /// no-op.
  void declareFlow(FlowId id, std::int32_t src, std::int32_t dst, ByteCount size,
                   SimTime start, bool isShort);

  /// A leaf switch forwarded a packet of the flow onto uplink slot
  /// `uplink`. Feeds the path matrix for every packet; per-flow uplink
  /// shares and path-change detection only consider declared flows' data
  /// packets (payload > 0), so ACKs crossing the reverse direction do not
  /// pollute the forward path history.
  void onUplinkForward(int leaf, int uplink, FlowId flow, ByteCount wireBytes,
                       ByteCount payload, SimTime now);

  /// The sender put a retransmission (fast, RTO, or go-back-N resend) on
  /// the wire.
  void onRetransmit(FlowId flow, SimTime now);

  /// The receiver accepted an out-of-order data segment. Attributed to a
  /// path change when one happened at-or-after the last retransmission,
  /// to loss when only retransmissions explain it, else left unattributed.
  void onOutOfOrder(FlowId flow, SimTime now);

  /// A load-balancing decision touched the flow (bounded timeline append).
  void onDecision(FlowId flow, SimTime now, DecisionKind kind, double a0,
                  double a1);

  /// Copy the transport's final state into the record at harvest time.
  void finishFlow(FlowId id, bool completed, SimTime fct, bool missedDeadline,
                  ByteCount bytesAcked, std::uint64_t dataPacketsSent,
                  std::uint64_t fastRetransmits, std::uint64_t timeouts);

  const PathMatrix& pathMatrix() const { return matrix_; }
  std::size_t flowCount() const { return records_.size(); }
  std::uint64_t flowsNotTracked() const { return flowsNotTracked_; }
  /// Lookup by flow id; nullptr when the flow was never declared.
  const FlowRecord* find(FlowId id) const;
  /// All records sorted by flow id (deterministic export order).
  std::vector<const FlowRecord*> sortedRecords() const;

  /// Fold the probe into a run summary under "flows." keys: tracked flow
  /// count, per-class reorder rate, path churn, decision totals, and the
  /// matrix imbalance — bounded-size, deterministic, and independent of
  /// declaration order, so sweep reports stay byte-identical across
  /// worker counts.
  void fold(RunSummary& summary) const;

  /// NDJSON export: a {"type":"meta",...} line carrying `meta` key/value
  /// pairs, one {"type":"flow",...} line per record sorted by flow id
  /// (uplinks as [slot, packets, bytes], decisions as [kind, t_s, a0, a1]),
  /// and a trailing {"type":"path_matrix",...} line.
  std::string toNdjson(
      const std::vector<std::pair<std::string, std::string>>& meta) const;
  bool writeNdjsonFile(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  FlowRecord* liveRecord(FlowId id);

  Config cfg_;
  /// In declaration order; sortedRecords() gives the exports' id order.
  std::vector<FlowRecord> records_;
  /// id -> index into records_.
  util::FlowIndex<std::uint32_t> index_;
  std::uint64_t flowsNotTracked_ = 0;
  PathMatrix matrix_;
};

}  // namespace tlbsim::obs
