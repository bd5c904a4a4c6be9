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
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

struct QueueConfig {
  int capacityPackets = 256;
  /// Instantaneous-queue ECN mark threshold in packets; 0 disables marking.
  int ecnThresholdPackets = 0;

  /// Marking discipline. kInstantaneous is DCTCP's recommendation (mark
  /// when the instantaneous queue is at/above K). kRed marks
  /// probabilistically on the EWMA-averaged queue between minTh=K and
  /// maxTh=3K (gentle RED, marking only — drops still happen at the
  /// buffer limit).
  enum class Marking { kInstantaneous, kRed };
  Marking marking = Marking::kInstantaneous;
  double redWeight = 0.002;   ///< EWMA gain for the averaged queue
  double redMaxProb = 0.1;    ///< marking probability at maxTh
  std::uint64_t redSeed = 0x5eed;
  /// RED idle decay: a packet arriving at a queue that has been empty for
  /// time T ages the average as if T/redIdleSlot zero-length samples had
  /// been observed (RFC 2309's "m" correction; set it to roughly one
  /// packet's transmission time). 0 disables the decay — the average then
  /// only moves on arrivals, overstating congestion after idle spells.
  SimTime redIdleSlot = SimTime{};
};

class DropTailQueue {
 public:
  explicit DropTailQueue(QueueConfig cfg = {})
      : cfg_(cfg), redRng_(cfg.redSeed) {}

  /// Returns false (and counts a drop) when the queue is full.
  /// On success a copy of the packet is stored with its enqueue timestamp,
  /// CE-marked when the marking discipline says so.
  bool enqueue(const Packet& pkt, SimTime now) {
    // The averaged queue samples every arrival — including the ones the
    // buffer limit rejects below. Skipping dropped arrivals would freeze
    // the average under saturation exactly when RED needs it highest.
    if (cfg_.marking == QueueConfig::Marking::kRed) updateRedAverage(now);
    if (static_cast<int>(count_) >= cfg_.capacityPackets) {
      ++drops_;
      droppedBytes_ += pkt.size;
      return false;
    }
    const bool mark = shouldMark(pkt);
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
    if (count_ == 0) emptySince_ = now;
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

  /// RED's averaged queue length (packets); kInstantaneous mode keeps it
  /// at 0.
  double averagedQueuePackets() const { return avgQueue_; }

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

  void updateRedAverage(SimTime now) {
    if (count_ == 0 && cfg_.redIdleSlot > SimTime{} && now > emptySince_) {
      const double idleSamples = static_cast<double>((now - emptySince_).ns()) /
                                 static_cast<double>(cfg_.redIdleSlot.ns());
      avgQueue_ *= std::pow(1.0 - cfg_.redWeight, idleSamples);
    }
    avgQueue_ = (1.0 - cfg_.redWeight) * avgQueue_ +
                cfg_.redWeight * static_cast<double>(count_);
  }

  bool shouldMark(const Packet& pkt) {
    if (cfg_.ecnThresholdPackets <= 0 || !pkt.ecnCapable) return false;
    if (cfg_.marking == QueueConfig::Marking::kInstantaneous) {
      return static_cast<int>(count_) >= cfg_.ecnThresholdPackets;
    }
    // Gentle RED on the EWMA-averaged queue: minTh = K, maxTh = 3K.
    const double minTh = cfg_.ecnThresholdPackets;
    const double maxTh = 3.0 * minTh;
    if (avgQueue_ < minTh) return false;
    if (avgQueue_ >= maxTh) return true;
    const double prob =
        cfg_.redMaxProb * (avgQueue_ - minTh) / (maxTh - minTh);
    return redRng_.uniform() < prob;
  }

  QueueConfig cfg_;
  Rng redRng_;
  std::vector<Item> ring_;  ///< power-of-two size; live items wrap from head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  ByteCount bytes_;
  double avgQueue_ = 0.0;
  SimTime emptySince_;  ///< when the queue last drained (starts empty at 0)
  std::uint64_t drops_ = 0;
  ByteCount droppedBytes_;
  std::uint64_t ecnMarks_ = 0;
};

}  // namespace tlbsim::net
