// Runtime invariant audit (tlbsim::check): a validator that re-derives the
// simulation's conservation laws from first principles on every control
// tick and cross-checks them against the incremental counters the hot
// paths maintain. A silent unit mix-up (ns vs µs, bytes vs packets) or an
// off-by-one in queue accounting skews every figure without crashing —
// this layer turns those into loud failures.
//
// Checked each tick:
//   * packet conservation, per link:  enqueued == tx + queued + serializing
//     + fault-flushed, and delivered + fault-wire-drops <= tx (the
//     remaining difference is in propagation),
//   * packet conservation, end to end:  data sent >= data received, and
//     the difference is covered by queue drops + fault drops + packets
//     still inside the network (fault losses are accounted separately so
//     a fault-injection run audits clean; see src/fault),
//   * packet store accounting: the watched fabric's live store slots
//     equal the slots its links hold (queued, started and not yet
//     landed, or superseded copies whose event has not fired), so a slot
//     is never leaked or freed twice,
//   * byte accounting, per port: the queue's incremental byte counter
//     equals a from-scratch sum over the stored packets, and the depth
//     never exceeds the configured capacity,
//   * the kept uplink views: each decision switch's view, unless marked
//     for a rebuild, holds exactly its up uplinks in group order, each
//     entry the one its link keeps, with the bytes, rate, delay and wait
//     of a view built from scratch; a kept entry's bytes match its queue
//     even in a view marked for a rebuild,
//   * event-time monotonicity: simulation time never moves backwards
//     between ticks,
//   * TLB model range: q_th stays within [0, buffer/cap] (a threshold the
//     queue can never reach means the control loop is dead),
//   * TCP sequence sanity per flow: snd_una <= snd_nxt <= flow size,
//     snd_una <= receiver's cumulative ack <= flow size, cwnd within
//     [1 MSS, +inf) and finite, completion implies full acknowledgment,
//     and the in-network count: the sender's and the receiver's counts of
//     packets in the network (transport::Endpoint) sum to the live store
//     slots holding the flow's packets, superseded copies aside,
//   * no orphan packets: no packet arrived at a host for a flow with no
//     bound endpoint. Endpoints are reused once their flow's in-network
//     count reaches zero (transport::EndpointPool), so an orphan means a
//     packet escaped the count and a result may have changed.
//
// A flow is audited while its endpoints are live; when the pool reuses
// them the flow is unwatched and its packet counts move into retired
// totals, so the end-to-end conservation sums still cover every flow.
//
// Violations are recorded (bounded) and, by default, also routed through
// TLBSIM_ASSERT so a Debug test run dies at the offending tick. The
// harness installs an auditor for every experiment in Debug builds; see
// ExperimentConfig::audit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace tlbsim::app {
class Service;
}
namespace tlbsim::net {
class Fabric;
class Host;
class Link;
class PacketStore;
class Switch;
}  // namespace tlbsim::net
namespace tlbsim::core {
class Tlb;
}
namespace tlbsim::transport {
class TcpReceiver;
class TcpSender;
}  // namespace tlbsim::transport
namespace tlbsim::sim {
class Simulator;
}

namespace tlbsim::check {

struct AuditViolation {
  SimTime time;
  std::string what;
};

class InvariantAuditor {
 public:
  struct Config {
    /// Audit cadence; matches TLB's 500 µs control interval by default.
    SimTime interval = microseconds(500);
    /// Route each violation through TLBSIM_ASSERT (dies unless a test
    /// installed a check::FailureHandler). Violations are recorded either
    /// way.
    bool assertOnViolation = true;
    /// Cap on recorded violations (the count keeps incrementing).
    std::size_t maxRecorded = 64;
  };

  // Out-of-line: a default argument here would need Config's member
  // initializers before the enclosing class is complete.
  InvariantAuditor();
  explicit InvariantAuditor(Config cfg);

  // --- registration (all watched objects must outlive the auditor) ------
  void watchLink(const net::Link& link, std::string label);
  void watchSwitch(const net::Switch& sw);
  /// `qthCapBytes` is the admissible upper bound for q_th (buffer depth,
  /// tightened by the ECN cap when one is configured).
  void watchTlb(const core::Tlb& tlb, ByteCount qthCapBytes);
  /// Sender/receiver of one flow, as a pair so the end-to-end conservation
  /// sum stays closed.
  void watchFlow(const transport::TcpSender& sender,
                 const transport::TcpReceiver& receiver, ByteCount mss);
  /// Stop auditing a flow whose endpoints are about to be reused: its
  /// final packet counts join the retired conservation totals. A no-op for
  /// a sender not watched.
  void unwatchFlow(const transport::TcpSender& sender);
  /// Every host (for orphan packets), link and switch of a topology, and
  /// its packet store, in one call; links are labelled "<from>-><to>" by
  /// node name.
  void watchTopology(const net::Fabric& fabric);
  /// Application-layer open-query accounting: each tick re-checks query
  /// conservation (launched == completed + open) and that every open
  /// query can still make progress (armed retry timer or live attempt) —
  /// i.e. no query ever hangs; the run-loop maxDuration backstop always
  /// terminates it.
  void watchService(const app::Service& service);

  /// Start the periodic audit (fires every cfg.interval; also audits once
  /// at the end of a bounded run when the simulator revives the timer).
  void install(sim::Simulator& simr);

  /// Run every registered check once against the state at time `now`.
  void auditNow(SimTime now);

  // --- results ----------------------------------------------------------
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t checksRun() const { return checksRun_; }
  std::uint64_t violationCount() const { return violationCount_; }
  /// Packets the watched hosts received for unbound flows, as of the last
  /// audit.
  std::uint64_t orphanPackets() const { return orphanPackets_; }
  const std::vector<AuditViolation>& violations() const {
    return violations_;
  }

 private:
  struct WatchedLink {
    const net::Link* link;
    std::string label;
  };
  struct WatchedTlb {
    const core::Tlb* tlb;
    ByteCount qthCapBytes;
  };
  struct WatchedFlow {
    const transport::TcpSender* sender;
    const transport::TcpReceiver* receiver;
    ByteCount mss;
  };

  /// Records (and possibly asserts on) one violation. `fmt` is
  /// printf-style.
  __attribute__((format(printf, 3, 4))) void report(SimTime now,
                                                    const char* fmt, ...);

  void auditLinks(SimTime now);
  void auditSwitches(SimTime now);
  void auditUplinkView(SimTime now, const net::Switch& sw);
  void auditTlbs(SimTime now);
  void auditFlows(SimTime now);
  void auditHosts(SimTime now);
  void auditConservation(SimTime now);
  void auditServices(SimTime now);

  Config cfg_;
  std::vector<WatchedLink> links_;
  std::vector<const net::Switch*> switches_;
  std::vector<WatchedTlb> tlbs_;
  std::vector<WatchedFlow> flows_;
  std::vector<const net::Host*> hosts_;
  std::vector<const app::Service*> services_;
  /// Set by the first watchFlow: conservation is checked from then on.
  bool flowsWatched_ = false;
  /// Final data-packet counts of the flows unwatched so far.
  std::uint64_t retiredDataSent_ = 0;
  std::uint64_t retiredDataReceived_ = 0;
  std::uint64_t orphanPackets_ = 0;

  sim::Simulator* sim_ = nullptr;
  /// The watched fabric's store (set with topologyComplete_).
  const net::PacketStore* store_ = nullptr;
  /// True once watchTopology covered every link a packet can traverse;
  /// gates the end-to-end conservation check (partial link coverage would
  /// mis-attribute packets queued on unwatched links).
  bool topologyComplete_ = false;
  SimTime lastAuditTime_ = -1_ns;
  std::uint64_t ticks_ = 0;
  std::uint64_t checksRun_ = 0;
  std::uint64_t violationCount_ = 0;
  std::vector<AuditViolation> violations_;
};

}  // namespace tlbsim::check
