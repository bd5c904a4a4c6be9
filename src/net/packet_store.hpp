// One fabric's packet memory. Every packet in the network — queued, being
// serialized, on the wire, or in a node's hands between two links — sits
// in a slot of the fabric's store, and queues, wires and nodes name it by
// a 4-byte handle. A packet takes its slot when its host's NIC accepts it
// (Link::send) and keeps that one slot until it is delivered to a host or
// lost. ns-2 keeps packets the same way: one free list (Packet::alloc /
// Packet::free), queues that only link packets together (PacketQueue),
// and one Packet object passed from hop to hop.
//
// Slots live in fixed-size chunks that never move, so a reference to a
// stored packet stays valid while the store grows: a host reads the
// packet it was handed while its endpoint sends replies, whose slots may
// add a chunk. A chunk is added only when every slot is taken, on first
// use rather than at construction, and chunks are freed whole when the
// store goes: the store's size follows the most packets the whole fabric
// held at once, not the sum of every port's worst case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/check.hpp"
#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

class PacketStore {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNone = 0xffffffffu;
  static constexpr std::size_t kChunkSlots = 256;

  /// Where a stored packet is; for a started packet, what the event its
  /// link posted does when it fires.
  enum class State : std::uint8_t {
    kFree,
    kHeld,     ///< in a node's or a sender's hands, in no link
    kQueued,   ///< waiting in a DropTailQueue
    kDeliver,  ///< hand it to the peer, unless its wire epoch is stale
    kLose,     ///< a fault loss at serialization end (gray drop, down)
    kSink,     ///< sinkless link: count it delivered at serialization end
    kVoid,     ///< superseded by a re-decision: only free the slot
  };

  struct Slot {
    Packet pkt;
    SimTime enqueuedAt;       ///< when its queue accepted it
    std::uint64_t epoch = 0;  ///< the wire epoch it departed under
    Handle next = kNone;      ///< next in its queue, or on the free list
    State state = State::kFree;
  };

  using LossHandler = util::InlineFunction<void(const Packet&)>;

  explicit PacketStore(LossHandler onLoss = {})
      : onLoss_(std::move(onLoss)) {}
  PacketStore(const PacketStore&) = delete;
  PacketStore& operator=(const PacketStore&) = delete;

  /// Report `pkt` lost: dropped by a full queue, rejected or flushed by a
  /// down link, killed on the wire or gray-dropped by a fault, or left
  /// without a route at a switch.
  void lost(const Packet& pkt) const {
    if (onLoss_) onLoss_(pkt);
  }

  /// Copies `pkt` into a free slot in `state`, adding a chunk when none is
  /// free, and returns the slot's handle. A packet is copied in once, at
  /// its host's NIC; the one other copy is a fault's re-decision of the
  /// packet being serialized (Link::redecide), whose `pkt` is itself
  /// stored.
  Handle alloc(const Packet& pkt, State state = State::kHeld) {
    TLBSIM_DCHECK(state != State::kFree, "packet slot taken as free");
    if (freeHead_ == kNone) grow();
    const Handle h = freeHead_;
    Slot& slot = (*this)[h];
    TLBSIM_DCHECK(slot.state == State::kFree, "packet slot %u taken twice",
                  h);
    freeHead_ = slot.next;
    slot.pkt = pkt;
    slot.state = state;
    ++live_;
    return h;
  }

  /// Returns slot `h` to the free list.
  void free(Handle h) {
    Slot& slot = (*this)[h];
    TLBSIM_DCHECK(slot.state != State::kFree, "packet slot %u freed twice",
                  h);
    slot.state = State::kFree;
    slot.next = freeHead_;
    freeHead_ = h;
    --live_;
  }

  Slot& operator[](Handle h) {
    TLBSIM_DCHECK((h >> kChunkBits) < chunks_.size(),
                  "packet slot %u outside the store", h);
    return chunks_[h >> kChunkBits][h & (kChunkSlots - 1)];
  }
  const Slot& operator[](Handle h) const {
    TLBSIM_DCHECK((h >> kChunkBits) < chunks_.size(),
                  "packet slot %u outside the store", h);
    return chunks_[h >> kChunkBits][h & (kChunkSlots - 1)];
  }

  /// Slots holding a packet.
  std::size_t live() const { return live_; }
  /// Slots in the chunks allocated so far: the most slots ever live,
  /// rounded up to whole chunks (the store never shrinks).
  std::size_t capacity() const { return chunks_.size() * kChunkSlots; }

 private:
  static constexpr unsigned kChunkBits = 8;
  static_assert(std::size_t{1} << kChunkBits == kChunkSlots);

  /// Adds a chunk and threads its slots onto the (empty) free list.
  void grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Handle freeHead_ = kNone;
  std::size_t live_ = 0;
  LossHandler onLoss_;
};

}  // namespace tlbsim::net
