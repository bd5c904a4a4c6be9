// TCP sender endpoint with Reno-style loss recovery and DCTCP ECN response.
//
// Feature set (chosen to match what the paper's NS2/DCTCP evaluation
// exercises):
//   * connection setup via SYN / SYN-ACK (the paper's switches count flows
//     by snooping SYN/FIN),
//   * slow start from an initial window of 2 segments (paper Eq. (3)),
//   * congestion avoidance, NewReno-ish fast retransmit / fast recovery
//     with window inflation,
//   * go-back-N retransmission timeout with exponential backoff,
//   * DCTCP: per-window alpha estimation from ECE-marked bytes and
//     multiplicative cwnd reduction by alpha/2,
//   * receiver-window clamp (the paper's W_L, 64 KB).
#pragma once

#include <cstdint>
#include <functional>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/deadline_timer.hpp"
#include "sim/simulator.hpp"
#include "transport/endpoint.hpp"
#include "transport/tcp_params.hpp"

namespace tlbsim::obs {
class EventTrace;
class MetricsRegistry;
}  // namespace tlbsim::obs

namespace tlbsim::transport {

class TcpSender : public Endpoint {
 public:
  /// Invoked exactly once, when the last payload byte is cumulatively
  /// acked — once per flow, and the harness's closure captures well
  /// over any inline budget (cold path).
  // tlbsim-lint: allow(std-function-hot-path)
  using CompletionCallback = std::function<void(TcpSender&)>;

  TcpSender(sim::Simulator& simr, net::Host& localHost, const FlowSpec& flow,
            const TcpParams& params, CompletionCallback onComplete = {});

  /// Arm the flow: the SYN goes out at flow.start (or now if in the past).
  void start();
  /// Send the SYN now. For a pair built inside the flow's own start event
  /// (EndpointPool::launch), where start() would post a second one.
  void startNow() { sendSyn(); }

  void onPacket(const net::Packet& pkt) override;

  // --- progress / result accessors --------------------------------------
  bool completed() const { return completed_; }
  /// Flow completion time (valid once completed()).
  SimTime fct() const { return completionTime_ - flow_.start; }
  SimTime completionTime() const { return completionTime_; }
  bool missedDeadline() const {
    return flow_.deadline > 0_ns && (!completed_ || fct() > flow_.deadline);
  }

  ByteCount bytesAcked() const { return ByteCount::fromBytes(sndUna_); }
  /// Highest byte handed to the network so far (snd_nxt).
  ByteCount bytesSent() const { return ByteCount::fromBytes(sndNxt_); }
  std::uint64_t dupAcksReceived() const { return dupAcksReceived_; }
  std::uint64_t fastRetransmits() const { return fastRetransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t dataPacketsSent() const { return dataPacketsSent_; }
  std::uint64_t acksReceived() const { return acksReceived_; }
  double cwndBytes() const { return cwnd_; }
  double dctcpAlpha() const { return alpha_; }
  SimTime smoothedRtt() const { return srtt_; }

  /// Emit per-flow instant events on `trace` for RTO fires, fast
  /// retransmits and ECN cwnd cuts. One null-pointer branch per site when
  /// not installed.
  void installTrace(obs::EventTrace& trace) { trace_ = &trace; }

  /// Add this sender's counts to "tcp.fast_retransmits", "tcp.timeouts",
  /// "tcp.ecn_cwnd_cuts" and "tcp.retransmitted_segments", once: when its
  /// pair is reused, or at run end.
  void addCountersTo(obs::MetricsRegistry& metrics) const;

 private:
  void sendSyn();
  void establish(const net::Packet& synAck);
  void handleAck(const net::Packet& ack);
  void onNewAck(std::uint64_t ackNo, const net::Packet& ack);
  void onDupAck();
  void updateDctcp(std::uint64_t newlyAcked, bool ece);
  void trySend();
  void sendSegment(std::uint64_t seq, bool isRetransmit);
  void retransmitHead();
  void armTimer(SimTime delay);
  void onTimer();
  void armRto();
  void onRto();
  void updateRtt(SimTime sample);
  void complete();

  ByteCount inFlight() const {
    return ByteCount::fromBytes(sndNxt_ - sndUna_);
  }
  double windowLimit() const;

  // Flags and small counters, first: they share the Endpoint base's last
  // 8 bytes with its count (every pooled pair pays for each byte here).
  bool established_ = false;
  bool completed_ = false;
  bool inRecovery_ = false;    ///< NewReno fast recovery
  bool haveRttSample_ = false;
  int dupAckCount_ = 0;
  std::int16_t rtoBackoff_ = 1;  ///< 1 .. 64
  std::int16_t synRetries_ = 0;  ///< 0 .. kMaxSynRetries + 1

  CompletionCallback onComplete_;

  // --- connection state --------------------------------------------------
  SimTime completionTime_;

  std::uint64_t sndUna_ = 0;  ///< lowest unacked byte
  std::uint64_t sndNxt_ = 0;  ///< next byte to send
  std::uint64_t maxSent_ = 0;  ///< high-water mark of bytes handed out

  double cwnd_ = 0.0;      ///< congestion window (bytes)
  double ssthresh_ = 0.0;  ///< slow-start threshold (bytes)

  // --- fast recovery ------------------------------------------------------
  std::uint64_t recoverPoint_ = 0;  ///< sndNxt at loss detection
  /// Last time the recovery hole was retransmitted. Genuine NewReno
  /// partial acks arrive one per round trip; rate-limiting hole
  /// retransmissions to one per SRTT changes nothing for real loss but
  /// breaks the self-sustaining storm a *spurious* fast retransmit would
  /// otherwise ignite (every unneeded retransmit elicits another dup-ACK).
  SimTime lastHoleRetransmit_ = -1_ns;

  // --- RTO ------------------------------------------------------------------
  /// The SYN retry before establishment, the RTO after it. Lazily
  /// re-armed: an ACK that pushes the deadline back costs no heap work.
  sim::DeadlineTimer timer_;
  SimTime srtt_;
  SimTime rttvar_;

  // --- DCTCP ------------------------------------------------------------
  double alpha_ = 0.0;
  std::uint64_t alphaWindowEnd_ = 0;
  std::uint64_t windowAckedBytes_ = 0;
  std::uint64_t windowMarkedBytes_ = 0;
  std::uint64_t ecnCutPoint_ = 0;  ///< next cwnd cut allowed past this ack

  // --- statistics -----------------------------------------------------------
  std::uint64_t dupAcksReceived_ = 0;
  std::uint64_t fastRetransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t ecnCuts_ = 0;
  std::uint64_t retransmittedSegments_ = 0;
  std::uint64_t dataPacketsSent_ = 0;
  std::uint64_t acksReceived_ = 0;

  obs::EventTrace* trace_ = nullptr;  ///< null = disabled
};

}  // namespace tlbsim::transport
