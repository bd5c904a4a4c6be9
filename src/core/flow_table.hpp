// Switch-resident flow table (paper §5).
//
// Counts live short and long flows from SYN/FIN snooping, classifies flows
// by bytes sent (short until 100 KB), and purges idle entries on the
// periodic sweep to cover lost FINs and idle connections. Also maintains
// the running estimate of the mean short-flow size X used by the model.
//
// Entries live in a bounded lb::FlowStateTable: idle purge runs in LRU
// order (oldest first), and if the table ever reaches kMaxTrackedFlows
// live entries the least-recently-seen flow is retired to make room —
// accounted exactly like a lost-FIN purge, counted by the table's
// eviction stats, and re-admitted as a fresh short flow if it speaks
// again.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/tlb_config.hpp"
#include "lb/flow_state_table.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::core {

struct FlowEntry {
  ByteCount bytesSeen;   ///< payload bytes observed (data direction)
  int port = -1;         ///< current uplink assignment
  bool isLong = false;
  /// Payload since the flow last changed uplink. A long flow is only
  /// eligible to switch again after sending q_th more bytes — that is the
  /// "switching granularity" of the paper's Fig. 2(d): rerouting happens
  /// per q_th of data, not per packet observing a full queue (which would
  /// thrash and cut cwnd via spurious fast retransmits on every arrival).
  ByteCount bytesSinceSwitch;
};

class FlowTable {
 public:
  /// Hard cap on switch-resident flow entries (the flow-state table's
  /// slot-pool capacity). Reaching it retires the least-recently-seen
  /// flow — accounted like an idle purge, counted by the table's
  /// eviction stats, never silent.
  static constexpr std::size_t kMaxTrackedFlows = std::size_t{1} << 20;

  explicit FlowTable(const TlbConfig& cfg)
      : cfg_(cfg),
        flows_(stateConfig(cfg)),
        meanShortSize_(static_cast<double>(cfg.defaultShortFlowSize.bytes())) {}

  /// SYN (or SYN-ACK on the reverse path): a new flow appears, short.
  void onFlowStart(FlowId id, SimTime now);

  /// FIN/FIN-ACK: the flow is retired and its class count decremented.
  void onFlowEnd(FlowId id);

  /// Look up (creating if the SYN was missed) and refresh an entry. The
  /// reference is valid until the table is touched again.
  FlowEntry& touch(FlowId id, SimTime now);

  /// Account payload bytes; reclassifies short -> long across the
  /// threshold. Returns true if the flow just became long.
  bool recordPayload(FlowEntry& entry, ByteCount payload);

  /// Drop entries idle longer than cfg.idleTimeout (paper's sampling
  /// sweep), least-recently-seen first.
  void purgeIdle(SimTime now);

  int shortCount() const { return shortCount_; }
  int longCount() const { return longCount_; }
  std::size_t size() const { return flows_.size(); }
  bool contains(FlowId id) const { return flows_.contains(id); }
  /// Last packet timestamp of `id`, or nullptr when untracked.
  const SimTime* lastSeenOf(FlowId id) const { return flows_.lastSeenOf(id); }

  /// Running EWMA of completed short-flow sizes (the model's X).
  ByteCount meanShortFlowSize() const {
    return ByteCount::fromBytes(meanShortSize_);
  }

  /// The underlying bounded table (capacity/eviction stats, obs wiring).
  lb::FlowStateTableBase& stateTable() { return flows_; }
  const lb::FlowStateTableBase& stateTable() const { return flows_; }

 private:
  static lb::FlowStateConfig stateConfig(const TlbConfig& cfg) {
    lb::FlowStateConfig sc;
    sc.idleTimeout = cfg.idleTimeout;
    sc.maxFlows = kMaxTrackedFlows;
    return sc;
  }

  void retire(FlowEntry& entry);

  TlbConfig cfg_;
  lb::FlowStateTable<FlowEntry> flows_;
  int shortCount_ = 0;
  int longCount_ = 0;
  double meanShortSize_;
};

}  // namespace tlbsim::core
