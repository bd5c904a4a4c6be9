// Drop-tail FIFO output queue with optional DCTCP-style ECN marking.
//
// Capacity and the marking threshold are in packets, matching how the paper
// (and most DCN switch configs) specify buffers. Queue *length* is exposed
// in both packets and bytes because load balancers compare queue lengths.
//
// The queue holds no packets itself. A packet arrives already in a slot
// of the fabric's PacketStore, and the queue links the slots it accepts
// into a FIFO through their next handles, as ns-2's PacketQueue links
// Packets. Dequeue hands the head's slot to the caller, which frees it or
// passes it on; a queue destroyed with packets in it returns nothing.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "net/packet_store.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

struct QueueConfig {
  int capacityPackets = 256;
  /// DCTCP's marking rule: an ECN-capable packet arriving at a queue of
  /// at least this many packets is CE-marked; 0 disables marking.
  int ecnThresholdPackets = 0;
};

class DropTailQueue {
 public:
  using Handle = PacketStore::Handle;

  DropTailQueue(PacketStore& store, QueueConfig cfg)
      : store_(store), cfg_(cfg) {}

  /// Links held slot `h` at the tail with its enqueue timestamp, CE-marking
  /// the packet when the instantaneous queue is at the threshold. Returns
  /// false (and counts a drop) when the queue is full; the slot then stays
  /// the caller's.
  bool enqueue(Handle h, SimTime now) {
    PacketStore::Slot& slot = store_[h];
    TLBSIM_DCHECK(slot.state == PacketStore::State::kHeld,
                  "packet slot %u queued while not held", h);
    if (count_ >= cfg_.capacityPackets) {
      ++drops_;
      droppedBytes_ += slot.pkt.size;
      return false;
    }
    if (slot.pkt.ecnCapable && cfg_.ecnThresholdPackets > 0 &&
        count_ >= cfg_.ecnThresholdPackets) {
      slot.pkt.ce = true;
      ++ecnMarks_;
    }
    slot.state = PacketStore::State::kQueued;
    slot.enqueuedAt = now;
    slot.next = PacketStore::kNone;
    if (tail_ == PacketStore::kNone) {
      head_ = h;
    } else {
      store_[tail_].next = h;
    }
    tail_ = h;
    ++count_;
    bytes_ += slot.pkt.size;
    return true;
  }

  /// Unlinks the head and returns its slot, which the caller now owns.
  /// Precondition: !empty(). `queueDelay` receives the time it spent
  /// waiting in this queue.
  Handle dequeue(SimTime now, SimTime* queueDelay = nullptr) {
    TLBSIM_DCHECK(count_ > 0, "dequeue from an empty queue");
    const Handle h = head_;
    const PacketStore::Slot& slot = store_[h];
    head_ = slot.next;
    if (head_ == PacketStore::kNone) tail_ = PacketStore::kNone;
    --count_;
    bytes_ -= slot.pkt.size;
    if (queueDelay != nullptr) *queueDelay = now - slot.enqueuedAt;
    return h;
  }

  bool empty() const { return count_ == 0; }
  int packets() const { return count_; }
  ByteCount bytes() const { return bytes_; }

  std::uint64_t drops() const { return drops_; }
  ByteCount droppedBytes() const { return droppedBytes_; }
  std::uint64_t ecnMarks() const { return ecnMarks_; }

  const QueueConfig& config() const { return cfg_; }

  /// Recomputes the byte depth from the stored packets. O(n); used by the
  /// invariant audit to cross-check the incremental `bytes_` counter.
  ByteCount recomputeBytes() const {
    ByteCount total;
    for (Handle h = head_; h != PacketStore::kNone; h = store_[h].next) {
      total += store_[h].pkt.size;
    }
    return total;
  }

 private:
  PacketStore& store_;
  QueueConfig cfg_;
  Handle head_ = PacketStore::kNone;
  Handle tail_ = PacketStore::kNone;
  int count_ = 0;
  ByteCount bytes_;
  std::uint64_t drops_ = 0;
  ByteCount droppedBytes_;
  std::uint64_t ecnMarks_ = 0;
};

}  // namespace tlbsim::net
