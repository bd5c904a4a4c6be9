// Bounded, allocation-free per-flow state for load-balancing schemes.
//
// Every scheme that keeps switch-resident per-flow state (flowlet tables,
// Presto cell counters, TLB's flow table) hits that state once per packet,
// so it must be (a) cheap to look up and (b) bounded — the paper's own
// overhead evaluation (Fig. 15) measures exactly this, and a table that
// grows with every flow ever seen does not deploy. FlowStateTable is the
// one implementation they all share:
//
//   * states live in a stable slot pool threaded onto an intrusive LRU
//     list (uint32 prev/next links), and a util::FlowIndex maps each
//     flow to its slot number. Slot numbers never move, so the index
//     needs no fixups and the LRU links stay valid;
//   * the pool grows by doubling until `maxFlows` and never shrinks, and
//     each growth reserves the index for the new pool size: past the
//     high-water mark the packet path performs zero heap allocations
//     (see tests/lb/flow_state_alloc_test.cpp);
//   * entries idle longer than `idleTimeout` are dropped by purgeIdle()
//     (LRU order, oldest first, O(purged)); at `maxFlows` a new flow
//     evicts the least-recently-seen entry instead of growing. Both kinds
//     of removal are counted in Stats, which addCountersTo() reports at
//     run end — never silent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/flow_index.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {
class MetricsRegistry;
}  // namespace tlbsim::obs

namespace tlbsim::lb {

struct FlowStateConfig {
  /// Hard cap on tracked flows; reaching it evicts the LRU entry.
  std::size_t maxFlows = 1u << 20;
  /// First slot-pool allocation; doubles up to maxFlows as flows appear.
  std::size_t initialCapacity = 16;
  /// Entries idle longer than this are dropped by purgeIdle().
  SimTime idleTimeout = seconds(1);
};

/// Non-template part: the live count, removal accounting and their
/// read-out, shared by every FlowStateTable<State> instantiation.
class FlowStateTableBase {
 public:
  struct Stats {
    std::uint64_t inserted = 0;        ///< entries ever created
    std::uint64_t purgedIdle = 0;      ///< dropped by purgeIdle()
    std::uint64_t evictedCapacity = 0; ///< LRU-evicted at maxFlows
    std::size_t peakFlows = 0;         ///< high-water tracked count
  };

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Set the "lb.<label>.tracked_flows" gauge to the live count and add
  /// the removals so far to ".purged_flows" / ".evicted_flows".
  void addCountersTo(obs::MetricsRegistry& metrics,
                     const std::string& label) const;

 protected:
  Stats stats_;
  std::size_t size_ = 0;  ///< live entries
};

template <typename State>
class FlowStateTable : public FlowStateTableBase {
 public:
  explicit FlowStateTable(FlowStateConfig cfg = {}) : cfg_(cfg) {
    TLBSIM_ASSERT(cfg_.maxFlows >= 1, "FlowStateTable needs maxFlows >= 1");
    TLBSIM_ASSERT(cfg_.maxFlows < kNil, "maxFlows must fit uint32 indices");
    if (cfg_.initialCapacity > cfg_.maxFlows) {
      cfg_.initialCapacity = cfg_.maxFlows;
    }
    if (cfg_.initialCapacity == 0) cfg_.initialCapacity = 1;
  }

  /// Result of a touch(): the entry (fresh value-initialized State when
  /// `inserted`), and the entry's previous lastSeen timestamp (== `now`
  /// of the insertion when `inserted` — flowlet-gap logic reads this
  /// instead of keeping its own lastSeen field). The reference is valid
  /// until the next touch()/erase()/purgeIdle() on this table.
  struct TouchResult {
    State& state;
    bool inserted;
    SimTime prevSeen;
  };

  /// Look up `id`, creating it if absent, refresh its lastSeen to `now`
  /// and move it to the MRU end. Creation at maxFlows evicts the
  /// least-recently-seen entry through `onEvict(FlowId, State&)`.
  template <typename OnEvict>
  TouchResult touch(FlowId id, SimTime now, OnEvict&& onEvict) {
    if (const std::uint32_t* found = index_.find(id)) {
      Slot& s = slots_[*found];
      const SimTime prev = s.lastSeen;
      s.lastSeen = now;
      moveToMru(*found);
      return TouchResult{s.state, false, prev};
    }
    if (size_ == slots_.size()) {
      if (slots_.size() < cfg_.maxFlows) {
        grow(slots_.empty() ? cfg_.initialCapacity
                            : std::min(2 * slots_.size(), cfg_.maxFlows));
      } else {
        // Full at the cap: reclaim the least-recently-seen entry.
        const std::uint32_t victim = lruHead_;
        TLBSIM_DCHECK(victim != kNil, "full table with an empty LRU list");
        onEvict(slots_[victim].key, slots_[victim].state);
        ++stats_.evictedCapacity;
        removeSlot(victim);
      }
    }
    const std::uint32_t idx = allocSlot(id, now);
    index_.assign(id, idx);
    ++stats_.inserted;
    stats_.peakFlows = std::max(stats_.peakFlows, size_);
    return TouchResult{slots_[idx].state, true, now};
  }

  TouchResult touch(FlowId id, SimTime now) {
    return touch(id, now, [](FlowId, State&) {});
  }

  /// Lookup without refreshing recency; nullptr when absent.
  State* find(FlowId id) {
    const std::uint32_t* idx = index_.find(id);
    return idx != nullptr ? &slots_[*idx].state : nullptr;
  }
  const State* find(FlowId id) const {
    const std::uint32_t* idx = index_.find(id);
    return idx != nullptr ? &slots_[*idx].state : nullptr;
  }

  bool contains(FlowId id) const { return index_.find(id) != nullptr; }

  /// `id`'s lastSeen timestamp, or nullptr when absent.
  const SimTime* lastSeenOf(FlowId id) const {
    const std::uint32_t* idx = index_.find(id);
    return idx != nullptr ? &slots_[*idx].lastSeen : nullptr;
  }

  /// Remove `id`, handing the dying entry to `onRemove(FlowId, State&)`.
  template <typename OnRemove>
  bool erase(FlowId id, OnRemove&& onRemove) {
    const std::uint32_t* found = index_.find(id);
    if (found == nullptr) return false;
    const std::uint32_t idx = *found;
    onRemove(slots_[idx].key, slots_[idx].state);
    removeSlot(idx);
    return true;
  }

  bool erase(FlowId id) {
    return erase(id, [](FlowId, State&) {});
  }

  /// Drop every entry idle longer than cfg.idleTimeout, oldest first;
  /// each purged entry is handed to `onPurge(FlowId, State&)`. O(purged):
  /// the LRU list ends the walk at the first young-enough entry.
  template <typename OnPurge>
  std::size_t purgeIdle(SimTime now, OnPurge&& onPurge) {
    std::size_t purged = 0;
    while (lruHead_ != kNil &&
           now - slots_[lruHead_].lastSeen > cfg_.idleTimeout) {
      const std::uint32_t victim = lruHead_;
      onPurge(slots_[victim].key, slots_[victim].state);
      removeSlot(victim);
      ++purged;
    }
    stats_.purgedIdle += purged;
    return purged;
  }

  std::size_t purgeIdle(SimTime now) {
    return purgeIdle(now, [](FlowId, State&) {});
  }

  /// Visit every entry, least-recently-seen first:
  /// fn(FlowId, const State&, SimTime lastSeen).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::uint32_t i = lruHead_; i != kNil; i = slots_[i].next) {
      fn(slots_[i].key, slots_[i].state, slots_[i].lastSeen);
    }
  }

  /// Current slot-pool capacity (monotone, <= cfg.maxFlows).
  std::size_t capacity() const { return slots_.size(); }
  const FlowStateConfig& config() const { return cfg_; }

  /// Bytes resident in the table right now (slot pool + index). The
  /// bound the soak test asserts: once the pool reaches maxFlows, no
  /// churn pattern moves it.
  std::size_t residentBytes() const {
    return slots_.capacity() * sizeof(Slot) + index_.residentBytes();
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    FlowId key = kInvalidFlow;
    SimTime lastSeen;
    std::uint32_t prev = kNil;  ///< LRU link (or unused while free)
    std::uint32_t next = kNil;  ///< LRU link; free-list link while free
    State state{};
  };

  std::uint32_t allocSlot(FlowId key, SimTime now) {
    TLBSIM_DCHECK(freeHead_ != kNil, "allocSlot without a free slot");
    const std::uint32_t idx = freeHead_;
    Slot& s = slots_[idx];
    freeHead_ = s.next;
    s.key = key;
    s.lastSeen = now;
    s.state = State{};
    linkMru(idx);
    ++size_;
    return idx;
  }

  void removeSlot(std::uint32_t idx) {
    index_.erase(slots_[idx].key);
    unlink(idx);
    Slot& s = slots_[idx];
    s.key = kInvalidFlow;
    s.state = State{};
    s.next = freeHead_;
    freeHead_ = idx;
    --size_;
  }

  void moveToMru(std::uint32_t idx) {
    if (idx == lruTail_) return;
    unlink(idx);
    linkMru(idx);
  }

  void linkMru(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.prev = lruTail_;
    s.next = kNil;
    if (lruTail_ != kNil) {
      slots_[lruTail_].next = idx;
    } else {
      lruHead_ = idx;
    }
    lruTail_ = idx;
  }

  void unlink(std::uint32_t idx) {
    Slot& s = slots_[idx];
    if (s.prev != kNil) {
      slots_[s.prev].next = s.next;
    } else {
      lruHead_ = s.next;
    }
    if (s.next != kNil) {
      slots_[s.next].prev = s.prev;
    } else {
      lruTail_ = s.prev;
    }
    s.prev = s.next = kNil;
  }

  /// Grow the full slot pool to `newCap` (or build it initially), with
  /// an index sized to match. Amortized over the doubling schedule; never
  /// runs again once the pool has reached its high-water capacity.
  void grow(std::size_t newCap) {
    slots_.resize(newCap);
    // Thread the fresh tail slots onto the free list (newest first so
    // low indices are handed out first — deterministic either way).
    for (std::size_t i = slots_.size(); i-- > size_;) {
      slots_[i].next = freeHead_;
      freeHead_ = static_cast<std::uint32_t>(i);
    }
    index_.reserve(newCap);
  }

  FlowStateConfig cfg_;
  std::vector<Slot> slots_;
  /// Flow -> slot number.
  util::FlowIndex<std::uint32_t> index_;
  std::uint32_t freeHead_ = kNil;
  std::uint32_t lruHead_ = kNil;
  std::uint32_t lruTail_ = kNil;
};

}  // namespace tlbsim::lb
