#include "net/link.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace tlbsim::net {

void Link::installObs(obs::MetricsRegistry& metrics, obs::EventTrace* trace,
                      const std::string& label) {
  obsTx_ = &metrics.counter("port." + label + ".tx_packets");
  obsDrops_ = &metrics.counter("port." + label + ".drops");
  obsMarks_ = &metrics.counter("port." + label + ".ecn_marks");
  obsFaultDrops_ = &metrics.counter("port." + label + ".fault_drops");
  trace_ = trace;
  if (trace_ != nullptr) {
    traceLabel_ = trace_->intern(label);
    traceTid_ = trace_->newTrack(traceLabel_);
  }
}

void Link::noteFaultDrop(const Packet& pkt) {
  if (obsFaultDrops_ != nullptr) obsFaultDrops_->inc();
  if (trace_ != nullptr) {
    trace_->instant("net", "fault_drop", sim_.now(),
                    {{"flow", static_cast<double>(pkt.flow)},
                     {"seq", static_cast<double>(pkt.seq)},
                     {"size", static_cast<double>(pkt.size.bytes())}},
                    traceTid_);
  }
  for (const auto& hook : faultDropHooks_) hook(pkt);
}

void Link::faultDown(bool drainInFlight) {
  if (!up_) return;
  up_ = false;
  drainInFlight_ = drainInFlight;
  // In drop mode, everything already on the wire dies: deliveries carry
  // the epoch they departed under and are discarded on mismatch.
  if (!drainInFlight_) ++wireEpoch_;
  // The queue behind a dead port empties — those packets are fault losses,
  // not queue-overflow drops, and observers that meter dequeues (stats,
  // load estimators) must not see them leave.
  SimTime queueDelay;
  while (!queue_.empty()) {
    const Packet pkt = queue_.dequeue(sim_.now(), &queueDelay);
    ++faultFlushedPackets_;
    noteFaultDrop(pkt);
  }
}

void Link::faultUp() {
  if (up_) return;
  up_ = true;
  drainInFlight_ = false;
  if (!transmitting_ && !queue_.empty()) startTransmission();
}

void Link::faultSetRateFactor(double factor) {
  TLBSIM_ASSERT(factor > 0.0, "rate factor must be positive, got %f", factor);
  rateFactor_ = factor;
}

void Link::faultSetDelayFactor(double factor) {
  TLBSIM_ASSERT(factor > 0.0, "delay factor must be positive, got %f", factor);
  delayFactor_ = factor;
}

void Link::faultPlanFactors(double rateFactor, double delayFactor) {
  TLBSIM_ASSERT(rateFactor > 0.0 && delayFactor > 0.0,
                "planned factors must be positive, got %f / %f", rateFactor,
                delayFactor);
  planRateFactor_ = std::min(planRateFactor_, rateFactor);
  planDelayFactor_ = std::max(planDelayFactor_, delayFactor);
}

SimTime Link::worstCaseTransit(ByteCount maxPacket) const {
  const SimTime perPacket =
      rate_.scaled(std::min(planRateFactor_, rateFactor_))
          .transmissionTime(maxPacket);
  return (queue_.config().capacityPackets + 1) * perPacket +
         delay_ * std::max(planDelayFactor_, delayFactor_);
}

void Link::faultSetDropProb(double prob, std::uint64_t seed) {
  TLBSIM_ASSERT(prob >= 0.0 && prob <= 1.0,
                "drop probability must be in [0, 1], got %f", prob);
  dropProb_ = prob;
  faultRng_.reseed(seed);
}

void Link::send(const Packet& pkt) {
  if (!up_) {  // dead port: the packet vanishes, accounted as a fault loss
    ++faultRejectedPackets_;
    noteFaultDrop(pkt);
    return;
  }
  const std::uint64_t marksBefore = queue_.ecnMarks();
  if (!queue_.enqueue(pkt, sim_.now())) {  // drop-tail
    if (obsDrops_ != nullptr) obsDrops_->inc();
    if (trace_ != nullptr) {
      trace_->instant("net", "drop", sim_.now(),
                      {{"flow", static_cast<double>(pkt.flow)},
                       {"seq", static_cast<double>(pkt.seq)},
                       {"size", static_cast<double>(pkt.size.bytes())}},
                      traceTid_);
    }
    for (const auto& hook : dropHooks_) hook(pkt);
    return;
  }
  ++enqueuedPackets_;
  enqueuedBytes_ += pkt.size;
  if (queue_.ecnMarks() != marksBefore) {
    if (obsMarks_ != nullptr) obsMarks_->inc();
    if (trace_ != nullptr) {
      trace_->instant("net", "ecn_mark", sim_.now(),
                      {{"flow", static_cast<double>(pkt.flow)},
                       {"queue_pkts", static_cast<double>(queue_.packets())}},
                      traceTid_);
    }
    if (!markHooks_.empty()) {
      // Observers see the packet as stored: with its CE mark.
      Packet marked = pkt;
      marked.ce = true;
      for (const auto& hook : markHooks_) hook(marked);
    }
  }
  if (!transmitting_) startTransmission();
}

void Link::startTransmission() {
  TLBSIM_DCHECK(!queue_.empty(), "transmission started on an empty queue");
  SimTime queueDelay;
  txPacket_ = queue_.dequeue(sim_.now(), &queueDelay);
  const Packet& pkt = txPacket_;
  for (const auto& hook : dequeueHooks_) hook(pkt, queueDelay);
  transmitting_ = true;
  const SimTime txTime = effectiveRate().transmissionTime(pkt.size);
  busyTime_ += txTime;
  if (trace_ != nullptr) {
    // One span per serialization on this link's track; the packet type is
    // visible via the name, the identity via args.
    trace_->complete("net", toString(pkt.type), sim_.now(), txTime,
                     {{"flow", static_cast<double>(pkt.flow)},
                      {"seq", static_cast<double>(pkt.seq)},
                      {"qdelay_us", toMicroseconds(queueDelay)}},
                     traceTid_);
  }
  // The packet being serialized lives in txPacket_, so the event captures
  // one pointer: inline in the scheduler's slot, moved by plain copies.
  const auto done = [this] { onTransmitComplete(); };
  static_assert(sim::EventFn::relocatesByCopy<decltype(done)>());
  sim_.post(txTime, done);
}

std::uint32_t Link::wireAlloc(const Packet& pkt, std::uint64_t epoch) {
  std::uint32_t idx;
  if (wireFreeHead_ != kNoWireSlot) {
    idx = wireFreeHead_;
    wireFreeHead_ = wire_[idx].nextFree;
  } else {
    wire_.emplace_back();
    idx = static_cast<std::uint32_t>(wire_.size() - 1);
  }
  wire_[idx].pkt = pkt;
  wire_[idx].epoch = epoch;
  return idx;
}

void Link::onTransmitComplete() {
  // Read in place: txPacket_ is only re-filled by the startTransmission
  // call at the very end.
  const Packet& pkt = txPacket_;
  ++txPackets_;
  txBytes_ += pkt.size;
  if (obsTx_ != nullptr) obsTx_->inc();
  // A packet that finished serializing after a drop-mode faultDown dies
  // here; a gray failure drops it silently with probability dropProb_.
  const bool killSerialized = !up_ && !drainInFlight_;
  const bool grayDrop =
      dropProb_ > 0.0 && faultRng_.uniform() < dropProb_;
  if (peer_ == nullptr) {
    ++deliveredPackets_;  // sinkless link: nothing left in flight
  } else if (killSerialized || grayDrop) {
    ++faultWireDrops_;
    noteFaultDrop(pkt);
  } else {
    // Propagation is pipelined: delivery is scheduled independently while
    // the transmitter immediately starts on the next queued packet. The
    // delivery is valid only for the wire epoch it departed under; the
    // packet parks in the wire pool so the event captures 16 bytes.
    // A cable is FIFO: once a delay fault is lifted, a packet must not
    // overtake one still on the wire, so it arrives no earlier than the
    // previous delivery.
    const std::uint32_t slot = wireAlloc(pkt, wireEpoch_);
    const auto arrive = [this, slot] { deliver(slot); };
    static_assert(sim::EventFn::relocatesByCopy<decltype(arrive)>());
    lastArrival_ = std::max(sim_.now() + effectiveDelay(), lastArrival_);
    sim_.post(lastArrival_ - sim_.now(), arrive);
  }
  transmitting_ = false;
  if (up_ && !queue_.empty()) startTransmission();
}

void Link::deliver(std::uint32_t wireSlot) {
  // A copy, not a reference: the slot goes back on the free list before
  // the peer runs, and the peer may put the next packet on this wire.
  const Packet pkt = wire_[wireSlot].pkt;
  const std::uint64_t epoch = wire_[wireSlot].epoch;
  wire_[wireSlot].nextFree = wireFreeHead_;
  wireFreeHead_ = wireSlot;
  if (epoch != wireEpoch_) {
    ++faultWireDrops_;
    noteFaultDrop(pkt);
    return;
  }
  ++deliveredPackets_;
  peer_->receive(pkt, peerPort_);
}

}  // namespace tlbsim::net
