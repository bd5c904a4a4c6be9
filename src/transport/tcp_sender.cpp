#include "transport/tcp_sender.hpp"

#include <algorithm>

#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace tlbsim::transport {

namespace {
constexpr int kMaxSynRetries = 8;
}

// Every pooled endpoint pair holds one sender and one receiver, so their
// sizes bound the per-flow memory of the app workloads.
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(TcpSender) <= 376, "TcpSender outgrew its 376 bytes");
#endif

void TcpSender::addCountersTo(obs::MetricsRegistry& metrics) const {
  // All senders of a run add into the same totals: the registry returns
  // the same Counter for the same name.
  metrics.counter("tcp.fast_retransmits").inc(fastRetransmits_);
  metrics.counter("tcp.timeouts").inc(timeouts_);
  metrics.counter("tcp.ecn_cwnd_cuts").inc(ecnCuts_);
  metrics.counter("tcp.retransmitted_segments").inc(retransmittedSegments_);
}

TcpSender::TcpSender(sim::Simulator& simr, net::Host& localHost,
                     const FlowSpec& flow, const TcpParams& params,
                     CompletionCallback onComplete)
    : Endpoint(simr, localHost, flow, params),
      onComplete_(std::move(onComplete)),
      timer_(simr.scheduler()) {
  cwnd_ = static_cast<double>(TcpParams::initialCwndSegments *
                              params_.mss.bytes());
  ssthresh_ = static_cast<double>(params_.receiverWindow.bytes());
}

void TcpSender::start() {
  const SimTime when = std::max(flow_.start, sim_.now());
  flow_.start = when;
  sim_.postAt(when, [this] { sendSyn(); });
}

void TcpSender::sendSyn() {
  if (established_ || completed_) return;
  net::Packet syn = control(net::PacketType::kSyn);
  syn.deadline = flow_.deadline;  // deadline tag for switch statistics
  send(syn);
  // SYN loss protection: retry with exponential backoff until established.
  const SimTime synRto = params_.minRto * (1 << std::min<int>(synRetries_, 6));
  ++synRetries_;
  if (synRetries_ <= kMaxSynRetries) armTimer(synRto);
}

void TcpSender::establish(const net::Packet& synAck) {
  if (established_) return;
  established_ = true;
  timer_.cancel();
  if (synAck.echoTs >= 0_ns) updateRtt(sim_.now() - synAck.echoTs);
  if (flow_.size == 0_B) {
    complete();
    return;
  }
  alphaWindowEnd_ = 0;
  trySend();
}

void TcpSender::onPacket(const net::Packet& pkt) {
  countArrival();
  if (completed_) return;
  switch (pkt.type) {
    case net::PacketType::kSynAck:
      establish(pkt);
      break;
    case net::PacketType::kAck:
      handleAck(pkt);
      break;
    default:
      break;  // FIN-ACK etc. need no sender action
  }
}

double TcpSender::windowLimit() const {
  return std::min(cwnd_, static_cast<double>(params_.receiverWindow.bytes()));
}

void TcpSender::handleAck(const net::Packet& ack) {
  ++acksReceived_;
  const std::uint64_t ackNo = ack.ack;
  if (ackNo > sndUna_) {
    onNewAck(ackNo, ack);
  } else if (ackNo == sndUna_ && inFlight() > 0_B) {
    ++dupAcksReceived_;
    // DCTCP still accounts marks carried on dup-ACKs.
    updateDctcp(0, ack.ece);
    onDupAck();
  }
  // ackNo < sndUna_: an old ACK that was reordered on the reverse path;
  // it is not a duplicate of the current cumulative ACK — ignore it.
  trySend();
}

void TcpSender::onNewAck(std::uint64_t ackNo, const net::Packet& ack) {
  TLBSIM_DCHECK(ackNo <= maxSent_,
                "flow %llu acked byte %llu beyond the %llu ever sent",
                static_cast<unsigned long long>(flow_.id),
                static_cast<unsigned long long>(ackNo),
                static_cast<unsigned long long>(maxSent_));
  const std::uint64_t newlyAcked = ackNo - sndUna_;
  sndUna_ = ackNo;
  // A late ACK for data sent before a go-back-N rewind can overtake the
  // rewound snd_nxt; without this resync inFlight() would go negative and
  // the already-acked prefix would be retransmitted.
  if (sndNxt_ < sndUna_) sndNxt_ = sndUna_;
  if (ack.echoTs >= 0_ns && !ack.ece) updateRtt(sim_.now() - ack.echoTs);
  rtoBackoff_ = 1;
  updateDctcp(newlyAcked, ack.ece);

  const auto mss = static_cast<double>(params_.mss.bytes());
  if (inRecovery_) {
    if (ackNo >= recoverPoint_) {
      // Full ack: leave recovery, deflate to ssthresh.
      inRecovery_ = false;
      dupAckCount_ = 0;
      cwnd_ = ssthresh_;
    } else {
      // Partial ack (NewReno): the next hole is lost too — retransmit it
      // and stay in recovery, deflating by the amount acked. At most one
      // hole retransmission per SRTT (see lastHoleRetransmit_).
      cwnd_ = std::max(mss, cwnd_ - static_cast<double>(newlyAcked) + mss);
      if (!params_.holeRetransmitGuard || lastHoleRetransmit_ < 0_ns ||
          sim_.now() - lastHoleRetransmit_ >= srtt_) {
        retransmitHead();
        lastHoleRetransmit_ = sim_.now();
      }
    }
  } else {
    dupAckCount_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newlyAcked);  // slow start
    } else {
      cwnd_ += mss * mss / cwnd_;  // congestion avoidance (per-ack AIMD)
    }
  }

  if (sndUna_ >= static_cast<std::uint64_t>(flow_.size.bytes())) {
    complete();
    return;
  }
  armRto();
}

void TcpSender::onDupAck() {
  if (inRecovery_) {
    // Window inflation keeps the pipe full during recovery.
    cwnd_ += static_cast<double>(params_.mss.bytes());
    return;
  }
  ++dupAckCount_;
  if (dupAckCount_ >= TcpParams::dupAckThreshold) {
    ++fastRetransmits_;
    if (trace_ != nullptr) {
      trace_->instant("tcp", "fast_retransmit", sim_.now(),
                      {{"flow", static_cast<double>(flow_.id)},
                       {"cwnd", cwnd_}});
    }
    inRecovery_ = true;
    recoverPoint_ = sndNxt_;
    const auto mss = static_cast<double>(params_.mss.bytes());
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * mss);
    cwnd_ = ssthresh_ + 3.0 * mss;
    retransmitHead();
    lastHoleRetransmit_ = sim_.now();
    armRto();
  }
}

void TcpSender::updateDctcp(std::uint64_t newlyAcked, bool ece) {
  if (!params_.enableEcn) return;
  windowAckedBytes_ += newlyAcked;
  if (ece) windowMarkedBytes_ += newlyAcked;

  if (sndUna_ >= alphaWindowEnd_) {
    if (windowAckedBytes_ > 0) {
      const double f = static_cast<double>(windowMarkedBytes_) /
                       static_cast<double>(windowAckedBytes_);
      alpha_ = (1.0 - TcpParams::dctcpG) * alpha_ + TcpParams::dctcpG * f;
    }
    windowAckedBytes_ = 0;
    windowMarkedBytes_ = 0;
    alphaWindowEnd_ = sndNxt_;
  }

  // Multiplicative decrease, at most once per window of data.
  if (ece && sndUna_ > ecnCutPoint_ && !inRecovery_) {
    cwnd_ = std::max(static_cast<double>(params_.mss.bytes()),
                     cwnd_ * (1.0 - alpha_ / 2.0));
    ssthresh_ = cwnd_;
    ecnCutPoint_ = sndNxt_;
    ++ecnCuts_;
    if (trace_ != nullptr) {
      trace_->instant("tcp", "ecn_cwnd_cut", sim_.now(),
                      {{"flow", static_cast<double>(flow_.id)},
                       {"cwnd", cwnd_},
                       {"alpha", alpha_}});
    }
  }
}

void TcpSender::trySend() {
  if (!established_ || completed_) return;
  const auto size = static_cast<std::uint64_t>(flow_.size.bytes());
  while (sndNxt_ < size &&
         static_cast<double>(inFlight().bytes()) + static_cast<double>(params_.mss.bytes()) <=
             windowLimit() + 0.5) {
    sendSegment(sndNxt_, /*isRetransmit=*/false);
    sndNxt_ = std::min(size, sndNxt_ + static_cast<std::uint64_t>(params_.mss.bytes()));
  }
  if (inFlight() > 0_B && !timer_.pending()) armRto();
}

void TcpSender::sendSegment(std::uint64_t seq, bool isRetransmit) {
  const auto size = static_cast<std::uint64_t>(flow_.size.bytes());
  TLBSIM_DCHECK(seq < size, "flow %llu segment starts past flow end (%llu >= %llu)",
                static_cast<unsigned long long>(flow_.id),
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(size));
  const ByteCount payload = ByteCount::fromBytes(static_cast<std::int64_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(params_.mss.bytes()),
                              size - seq)));
  net::Packet pkt = control(net::PacketType::kData);
  pkt.seq = seq;
  pkt.payload = payload;
  pkt.size += payload;
  pkt.ecnCapable = params_.enableEcn;
  pkt.retransmit = isRetransmit;
  // Wire-accurate resend detection, evaluated before the high-water mark
  // moves: go-back-N resends after an RTO rewind re-cover already-sent
  // bytes but arrive here with isRetransmit=false.
  if (flowProbe_ != nullptr && (isRetransmit || seq < maxSent_)) {
    flowProbe_->onRetransmit(flow_.id, sim_.now());
  }
  ++dataPacketsSent_;
  maxSent_ = std::max(maxSent_, seq + static_cast<std::uint64_t>(payload.bytes()));
  if (isRetransmit) ++retransmittedSegments_;
  send(pkt);
}

void TcpSender::retransmitHead() { sendSegment(sndUna_, /*isRetransmit=*/true); }

void TcpSender::updateRtt(SimTime sample) {
  if (sample <= 0_ns) return;
  if (!haveRttSample_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    haveRttSample_ = true;
  } else {
    const SimTime err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
}

void TcpSender::armTimer(SimTime delay) {
  const auto fire = [this] { onTimer(); };
  static_assert(sim::EventFn::relocatesByCopy<decltype(fire)>(),
                "the timer closure must stay on the copy-only path");
  timer_.arm(delay, fire);
}

void TcpSender::onTimer() {
  // establish() disarms the SYN retry, so a fire after it is the RTO.
  if (established_) {
    onRto();
  } else {
    sendSyn();
  }
}

void TcpSender::armRto() {
  // Re-arming replaces any still-pending deadline.
  SimTime rto = haveRttSample_ ? srtt_ + 4 * rttvar_ : params_.minRto;
  rto = std::clamp(rto, params_.minRto, params_.maxRto);
  // Exponential backoff, re-clamped after the multiply: maxRto bounds the
  // armed timer itself (RFC 6298 §5.5), not just the pre-backoff estimate.
  rto = std::min(rto * rtoBackoff_, params_.maxRto);
  armTimer(rto);
}

void TcpSender::onRto() {
  // timer_ is no longer pending here, so trySend() below re-arms it.
  if (completed_ || inFlight() <= 0_B) return;
  ++timeouts_;
  if (trace_ != nullptr) {
    trace_->instant("tcp", "rto", sim_.now(),
                    {{"flow", static_cast<double>(flow_.id)},
                     {"snd_una", static_cast<double>(sndUna_)}});
  }
  // Go-back-N: rewind and re-enter slow start.
  const auto mss = static_cast<double>(params_.mss.bytes());
  ssthresh_ = std::max(static_cast<double>(inFlight().bytes()) / 2.0, 2.0 * mss);
  cwnd_ = mss;
  sndNxt_ = sndUna_;
  inRecovery_ = false;
  dupAckCount_ = 0;
  rtoBackoff_ = static_cast<std::int16_t>(std::min(rtoBackoff_ * 2, 64));
  trySend();
}

void TcpSender::complete() {
  completed_ = true;
  completionTime_ = sim_.now();
  timer_.cancel();
  // FIN lets switches retire the flow from their tables (paper §5). It is
  // fire-and-forget: a lost FIN is covered by the switches' idle purge.
  send(control(net::PacketType::kFin));
  if (onComplete_) onComplete_(*this);
}

}  // namespace tlbsim::transport
