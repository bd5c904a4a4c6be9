// Transport configuration shared by senders and receivers.
#pragma once

#include "net/packet.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::transport {

struct TcpParams {
  /// TCP/IP header overhead per packet.
  static constexpr ByteCount headerBytes = 40_B;
  /// Paper Eq. (3): slow start sends 2, 4, 8, ... segments.
  static constexpr int initialCwndSegments = 2;
  static constexpr int dupAckThreshold = 3;
  /// DCTCP's alpha EWMA gain.
  static constexpr double dctcpG = 1.0 / 16.0;

  ByteCount mss = 1460_B;  ///< payload bytes per full segment
  /// Receiver-window cap; the paper's W_L (64 KB default in Linux).
  ByteCount receiverWindow = 64 * kKiB;

  SimTime minRto = milliseconds(10);
  SimTime maxRto = milliseconds(200);

  bool enableEcn = true;

  /// Rate-limit NewReno hole retransmissions to one per SRTT. Genuine
  /// loss recovery is unaffected (real partial acks arrive one per round
  /// trip); what this prevents is the self-sustaining retransmission storm
  /// a *spurious* fast retransmit ignites under packet reordering (each
  /// unneeded retransmit elicits another dup-ACK). Classic NS2-era TCP —
  /// the stack the paper evaluated against — has no such guard; disable
  /// to reproduce its much harsher reordering penalties.
  bool holeRetransmitGuard = true;

  ByteCount maxSegmentWireSize() const { return mss + headerBytes; }
};

/// The paper's short/long boundary: a flow below this size is short. The
/// reports, the harness's flow classes and the workloads' deadlines all
/// read it; TLB's own threshold (TlbConfig::shortFlowThreshold) is a
/// setting that starts at the same value.
inline constexpr ByteCount kShortFlowSize = 100 * kKB;

/// A flow to be transferred: the unit of workload generation.
struct FlowSpec {
  FlowId id = kInvalidFlow;
  net::HostId src = -1;
  net::HostId dst = -1;
  ByteCount size;        ///< application bytes to deliver
  SimTime start;     ///< absolute start time
  SimTime deadline;  ///< FCT budget (relative); 0 = no deadline
};

}  // namespace tlbsim::transport
