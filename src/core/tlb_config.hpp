// Configuration of the TLB scheme (paper §3–§5 defaults).
#pragma once

#include "util/units.hpp"

namespace tlbsim::core {

struct TlbConfig {
  /// Flows are treated as short until this many payload bytes have been
  /// seen (paper §5: 100 KB).
  ByteCount shortFlowThreshold = 100 * kKB;

  /// Granularity-update and flow-table sampling interval t (paper: 500 µs).
  SimTime updateInterval = microseconds(500);

  /// A flow with no packets for this long is purged (lost FIN / idle
  /// connection). The paper uses the same 500 µs as the update interval;
  /// we default to a few intervals to tolerate bursty ACK clocking.
  SimTime idleTimeout = microseconds(1500);

  /// Long-flow maximum window W_L (64 KB Linux receive buffer default).
  ByteCount longFlowWindow = 64 * kKiB;

  /// Round-trip propagation delay estimate (model input).
  SimTime rtt = microseconds(100);

  /// Bottleneck link capacity C (model input).
  LinkRate linkCapacity = gbps(1);

  /// TCP segment payload size (model input, Eq. (3)).
  ByteCount mss = 1460_B;

  /// Short-flow deadline D. With deadline knowledge this is the 25th
  /// percentile of the deadline distribution (paper §4.2/§6.3). Also the
  /// fallback before any deadline has been observed in auto mode.
  SimTime deadline = milliseconds(10);

  /// Deduce D from SYN-carried deadline tags (paper §5): D = the
  /// `deadlinePercentile`-th percentile of the observed distribution,
  /// re-evaluated every update interval.
  bool autoDeadline = false;
  double deadlinePercentile = 25.0;

  /// Prior for the mean short-flow size X before any flow completes.
  ByteCount defaultShortFlowSize = 70 * kKB;

  /// EWMA gain for the running estimate of X.
  double shortSizeGain = 1.0 / 8.0;

  /// Switch buffer depth, used to clamp q_th (a threshold beyond the
  /// buffer could never trigger).
  int bufferPackets = 256;
  /// Wire size used to convert the buffer clamp to bytes.
  ByteCount packetWireSize = 1500_B;

  /// When >= 0, bypass the model and use this fixed threshold (bytes).
  /// Used by the Fig. 7 verification harness and ablations.
  ByteCount qthOverrideBytes = -1_B;

  /// Ablation knob: when > 0, a short flow leaves its current uplink only
  /// when another queue is shorter by more than this many bytes. The
  /// default 0 is the paper's rule (pure per-packet shortest queue); the
  /// bench/ablation_spray_policy study quantifies the tradeoff.
  ByteCount sprayStickiness;

  /// Upper clamp on q_th in packets, beyond the buffer clamp. With DCTCP
  /// marking at K packets a queue practically never exceeds K, so a
  /// threshold above K means "never switch"; capping at K keeps the
  /// control live. 0 = no extra cap (clamp at the buffer only).
  int qthCapPackets = 0;

  ByteCount bufferBytes() const { return packetWireSize * bufferPackets; }
};

}  // namespace tlbsim::core
