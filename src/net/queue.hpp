// Drop-tail FIFO output queue with optional DCTCP-style ECN marking.
//
// Capacity and the marking threshold are in packets, matching how the paper
// (and most DCN switch configs) specify buffers. Queue *length* is exposed
// in both packets and bytes because load balancers compare queue lengths.
//
// Packets are stored in a power-of-two ring that doubles on demand up to
// the buffer size and never shrinks: once a queue has reached its
// high-water mark, enqueue and dequeue never touch the heap.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
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
  explicit DropTailQueue(QueueConfig cfg = {}) : cfg_(cfg) {}

  /// Returns false (and counts a drop) when the queue is full.
  /// On success a copy of the packet is stored with its enqueue timestamp,
  /// CE-marked when the instantaneous queue is at the threshold.
  bool enqueue(const Packet& pkt, SimTime now) {
    if (static_cast<int>(count_) >= cfg_.capacityPackets) {
      ++drops_;
      droppedBytes_ += pkt.size;
      return false;
    }
    const bool mark = pkt.ecnCapable && cfg_.ecnThresholdPackets > 0 &&
                      static_cast<int>(count_) >= cfg_.ecnThresholdPackets;
    if (count_ == ring_.size()) grow();
    Item& item = ring_[slotOf(count_)];
    item.pkt = pkt;
    item.enqueuedAt = now;
    if (mark) {
      item.pkt.ce = true;
      ++ecnMarks_;
    }
    ++count_;
    bytes_ += pkt.size;
    return true;
  }

  /// Pops the head. Precondition: !empty().
  /// `queueDelay` receives the time spent waiting in this queue.
  Packet dequeue(SimTime now, SimTime* queueDelay = nullptr) {
    TLBSIM_DCHECK(count_ > 0, "dequeue from an empty queue");
    const Item& item = ring_[head_];
    head_ = slotOf(1);
    --count_;
    bytes_ -= item.pkt.size;
    if (queueDelay != nullptr) *queueDelay = now - item.enqueuedAt;
    return item.pkt;
  }

  bool empty() const { return count_ == 0; }
  int packets() const { return static_cast<int>(count_); }
  ByteCount bytes() const { return bytes_; }
  /// Packets the ring holds without growing (0 before the first enqueue).
  std::size_t ringCapacity() const { return ring_.size(); }

  std::uint64_t drops() const { return drops_; }
  ByteCount droppedBytes() const { return droppedBytes_; }
  std::uint64_t ecnMarks() const { return ecnMarks_; }

  const QueueConfig& config() const { return cfg_; }

  /// Recomputes the byte depth from the stored packets. O(n); used by the
  /// invariant audit to cross-check the incremental `bytes_` counter.
  ByteCount recomputeBytes() const {
    ByteCount total;
    for (std::size_t i = 0; i < count_; ++i) total += ring_[slotOf(i)].pkt.size;
    return total;
  }

 private:
  struct Item {
    Packet pkt;
    SimTime enqueuedAt;
  };

  static constexpr std::size_t kMinRing = 4;

  /// Ring index of the i-th queued item from the head.
  std::size_t slotOf(std::size_t i) const {
    return (head_ + i) & (ring_.size() - 1);
  }

  /// Doubles the ring, unrolling the wrapped contents to start at slot 0.
  /// Only called on a full ring below capacityPackets, so the ring never
  /// outgrows the first power of two that holds the whole buffer.
  void grow() {
    const std::size_t size =
        ring_.empty()
            ? std::min(kMinRing, std::bit_ceil(static_cast<std::size_t>(
                                     cfg_.capacityPackets)))
            : 2 * ring_.size();
    std::vector<Item> bigger(size);
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = ring_[slotOf(i)];
    ring_.swap(bigger);
    head_ = 0;
  }

  QueueConfig cfg_;
  std::vector<Item> ring_;  ///< power-of-two size; live items wrap from head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  ByteCount bytes_;
  std::uint64_t drops_ = 0;
  ByteCount droppedBytes_;
  std::uint64_t ecnMarks_ = 0;
};

}  // namespace tlbsim::net
