#include "net/packet_store.hpp"

namespace tlbsim::net {

void PacketStore::grow() {
  TLBSIM_DCHECK(freeHead_ == kNone, "store grown with free slots left");
  TLBSIM_ASSERT(capacity() + kChunkSlots <= kNone,
                "packet store out of handles at %zu slots", capacity());
  const auto first = static_cast<Handle>(capacity());
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  Slot* chunk = chunks_.back().get();
  // In handle order, so a fresh chunk is taken from its start.
  for (std::size_t i = 0; i + 1 < kChunkSlots; ++i) {
    chunk[i].next = first + static_cast<Handle>(i) + 1;
  }
  chunk[kChunkSlots - 1].next = kNone;
  freeHead_ = first;
}

}  // namespace tlbsim::net
