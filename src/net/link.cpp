#include "net/link.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace tlbsim::net {

// Every link holds one queue.
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(DropTailQueue) <= 64,
              "DropTailQueue outgrew its 64 bytes");
#endif

void Link::installTrace(obs::EventTrace& trace, const std::string& label) {
  trace_ = &trace;
  traceLabel_ = trace.intern(label);
  traceTid_ = trace.newTrack(traceLabel_);
}

void Link::addCountersTo(obs::MetricsRegistry& metrics,
                         const std::string& label) const {
  const std::string p = "port." + label + ".";
  metrics.counter(p + "tx_packets").inc(startedPackets_);
  metrics.counter(p + "drops").inc(queue_.drops());
  metrics.counter(p + "ecn_marks").inc(queue_.ecnMarks());
  metrics.counter(p + "fault_drops").inc(faultDrops());
}

void Link::noteFaultDrop(const Packet& pkt) {
  if (trace_ != nullptr) {
    trace_->instant("net", "fault_drop", sim_.now(),
                    {{"flow", static_cast<double>(pkt.flow)},
                     {"seq", static_cast<double>(pkt.seq)},
                     {"size", static_cast<double>(pkt.size.bytes())}},
                    traceTid_);
  }
  for (const auto& hook : faultDropHooks_) hook(pkt);
  store_.lost(pkt);
}

void Link::faultDown(bool drainInFlight) {
  if (!up_) return;
  up_ = false;
  staleView();
  drainInFlight_ = drainInFlight;
  // In drop mode, everything already on the wire dies: deliveries carry
  // the epoch they departed under and are discarded on mismatch. The
  // packet being serialized dies when its serialization ends.
  if (!drainInFlight_) {
    ++wireEpoch_;
    redecide();
  }
  // The queue behind a dead port empties — those packets are fault losses,
  // not queue-overflow drops, and observers that meter dequeues (stats,
  // load estimators) must not see them leave.
  SimTime queueDelay;
  while (!queue_.empty()) {
    const Handle slot = queue_.dequeue(sim_.now(), &queueDelay);
    ++faultFlushedPackets_;
    noteFaultDrop(store_[slot].pkt);
    store_.free(slot);
  }
  syncView();
}

void Link::faultUp() {
  if (up_) return;
  up_ = true;
  staleView();
  drainInFlight_ = false;
  redecide();  // a down lifted before serialization ends delivers the packet
  if (!queue_.empty()) serve();
}

void Link::faultSetRateFactor(double factor) {
  TLBSIM_ASSERT(factor > 0.0, "rate factor must be positive, got %f", factor);
  rateFactor_ = factor;
  staleView();
}

void Link::faultSetDelayFactor(double factor) {
  TLBSIM_ASSERT(factor > 0.0, "delay factor must be positive, got %f", factor);
  delayFactor_ = factor;
  staleView();
  redecide();  // the packet being serialized propagates at the new delay
}

void Link::faultSetDropProb(double prob, std::uint64_t seed) {
  TLBSIM_ASSERT(prob >= 0.0 && prob <= 1.0,
                "drop probability must be in [0, 1], got %f", prob);
  dropProb_ = prob;
  faultRng_.reseed(seed);
  if (transmitting()) {
    // The packet being serialized draws again, first from the new seed.
    txGrayDrop_ = dropProb_ > 0.0 && faultRng_.uniform() < dropProb_;
    redecide();
  }
}

void Link::send(Handle slot) {
  const Packet& pkt = store_[slot].pkt;
  if (!up_) {  // dead port: the packet vanishes, accounted as a fault loss
    ++faultRejectedPackets_;
    noteFaultDrop(pkt);
    store_.free(slot);
    return;
  }
  const std::uint64_t marksBefore = queue_.ecnMarks();
  if (!queue_.enqueue(slot, sim_.now())) {  // drop-tail
    if (trace_ != nullptr) {
      trace_->instant("net", "drop", sim_.now(),
                      {{"flow", static_cast<double>(pkt.flow)},
                       {"seq", static_cast<double>(pkt.seq)},
                       {"size", static_cast<double>(pkt.size.bytes())}},
                      traceTid_);
    }
    for (const auto& hook : dropHooks_) hook(pkt);
    store_.lost(pkt);
    store_.free(slot);
    return;
  }
  ++enqueuedPackets_;
  syncView();
  if (queue_.ecnMarks() != marksBefore) {
    if (trace_ != nullptr) {
      trace_->instant("net", "ecn_mark", sim_.now(),
                      {{"flow", static_cast<double>(pkt.flow)},
                       {"queue_pkts", static_cast<double>(queue_.packets())}},
                      traceTid_);
    }
    for (const auto& hook : markHooks_) hook(pkt);  // with its CE mark
  }
  serve();
}

void Link::serve() {
  if (wakePending_) return;  // the wake starts the head packet
  if (!transmitting()) {
    startTransmission();
    return;
  }
  // The first packet behind a busy transmitter: wake when it frees up.
  // The remaining serialization time is arbitrary, so the wake goes to
  // the heap rather than claiming a lane.
  wakePending_ = true;
  const auto wakeUp = [this] { wake(); };
  static_assert(sim::EventFn::relocatesByCopy<decltype(wakeUp)>());
  sim_.postAt(busyUntil_, wakeUp);
}

void Link::wake() {
  wakePending_ = false;
  if (up_ && !queue_.empty()) startTransmission();
}

void Link::startTransmission() {
  TLBSIM_DCHECK(!queue_.empty(), "transmission started on an empty queue");
  TLBSIM_DCHECK(!transmitting() && !wakePending_,
                "transmission started on a busy link");
  // The packet keeps its store slot; its event will read it there.
  SimTime queueDelay;
  txSlot_ = queue_.dequeue(sim_.now(), &queueDelay);
  syncView();
  const Packet& pkt = store_[txSlot_].pkt;
  const SimTime txTime = effectiveRate().transmissionTime(pkt.size);
  busyUntil_ = sim_.now() + txTime;
  busyTime_ += txTime;
  ++startedPackets_;
  startedBytes_ += pkt.size;
  for (const auto& hook : dequeueHooks_) hook(pkt, queueDelay);
  if (trace_ != nullptr) {
    // One span per serialization on this link's track; the packet type is
    // visible via the name, the identity via args.
    trace_->complete("net", toString(pkt.type), sim_.now(), txTime,
                     {{"flow", static_cast<double>(pkt.flow)},
                      {"seq", static_cast<double>(pkt.seq)},
                      {"qdelay_us", toMicroseconds(queueDelay)}},
                     traceTid_);
  }
  // One gray-drop draw per started packet, in start order (which is the
  // order serializations end in).
  txGrayDrop_ = dropProb_ > 0.0 && faultRng_.uniform() < dropProb_;
  arrivalFloor_ = lastArrival_;
  decide();
  if (!queue_.empty()) {
    // A backlog waits: wake when this serialization ends. The delay is a
    // serialization time, which repeats, so the wake rides a lane.
    wakePending_ = true;
    const auto wakeUp = [this] { wake(); };
    static_assert(sim::EventFn::relocatesByCopy<decltype(wakeUp)>());
    sim_.post(txTime, wakeUp);
  }
}

void Link::decide() {
  PacketStore::Slot& w = store_[txSlot_];
  SimTime at = busyUntil_;
  lastArrival_ = arrivalFloor_;
  if (peer_ == nullptr) {
    w.state = PacketStore::State::kSink;  // nothing left in flight
  } else if ((!up_ && !drainInFlight_) || txGrayDrop_) {
    // Finishing serialization after a drop-mode faultDown, or dropped
    // silently by a gray failure.
    w.state = PacketStore::State::kLose;
  } else {
    // Propagation is pipelined: the delivery is posted now, while the
    // transmitter moves on. It is valid only for the wire epoch it
    // departed under. A cable is FIFO: once a delay fault is lifted, a
    // packet must not overtake one still on the wire, so it arrives no
    // earlier than the previous delivery.
    w.state = PacketStore::State::kDeliver;
    w.epoch = wireEpoch_;
    lastArrival_ = std::max(busyUntil_ + effectiveDelay(), arrivalFloor_);
    at = lastArrival_;
  }
  const auto arrive = [this, slot = txSlot_] { land(slot); };
  static_assert(sim::EventFn::relocatesByCopy<decltype(arrive)>());
  sim_.post(at - sim_.now(), arrive);
}

void Link::redecide() {
  if (!transmitting()) return;
  // The posted event frees the old slot; a copy carries the new outcome.
  PacketStore::Slot& old = store_[txSlot_];
  const Handle copy = store_.alloc(old.pkt, old.state);
  old.state = PacketStore::State::kVoid;
  ++voidSlots_;
  txSlot_ = copy;
  decide();
}

void Link::land(Handle slot) {
  PacketStore::Slot& s = store_[slot];
  PacketStore::State fate = s.state;
  if (fate == PacketStore::State::kDeliver && s.epoch != wireEpoch_) {
    // Killed in flight by a drop-mode faultDown.
    fate = PacketStore::State::kLose;
  }
  switch (fate) {
    case PacketStore::State::kDeliver:
      // The slot goes with the packet: the peer forwards or frees it.
      ++deliveredPackets_;
      s.state = PacketStore::State::kHeld;
      peer_->receive(store_, slot, peerPort_);
      return;
    case PacketStore::State::kLose:
      ++faultWireDrops_;
      noteFaultDrop(s.pkt);
      break;
    case PacketStore::State::kSink:
      ++deliveredPackets_;
      break;
    case PacketStore::State::kVoid:
      --voidSlots_;
      break;
    case PacketStore::State::kFree:
    case PacketStore::State::kHeld:
    case PacketStore::State::kQueued:
      TLBSIM_DCHECK(false, "link event fired on a slot that is not started");
      break;
  }
  store_.free(slot);
}

}  // namespace tlbsim::net
