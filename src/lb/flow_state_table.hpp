// Bounded, allocation-free per-flow state for load-balancing schemes.
//
// Every scheme that keeps switch-resident per-flow state (flowlet tables,
// Presto cell counters, TLB's flow table) hits that state once per packet,
// so it must be (a) cheap to look up and (b) bounded — the paper's own
// overhead evaluation (Fig. 15) measures exactly this, and a table that
// grows with every flow ever seen does not deploy. FlowStateTable is the
// one implementation they all share:
//
//   * open-addressing robin-hood hash keyed by FlowId over a contiguous
//     bucket array (16-byte buckets: key, slot index, probe distance) —
//     lookups are a short linear scan with early termination on probe
//     distance, no pointer chasing, no per-node heap allocation;
//   * states live in a stable slot pool threaded onto an intrusive LRU
//     list (uint32 prev/next links). Robin-hood displacement moves only
//     the 16-byte bucket records, never the states, so the LRU links stay
//     valid without fixups;
//   * the pool grows by doubling until `maxFlows` and never shrinks:
//     past the high-water mark the packet path performs zero heap
//     allocations (see tests/lb/flow_state_alloc_test.cpp);
//   * entries idle longer than `idleTimeout` are dropped by purgeIdle()
//     (LRU order, oldest first, O(purged)); at `maxFlows` a new flow
//     evicts the least-recently-seen entry instead of growing. Both kinds
//     of removal are counted (Stats, and obs gauges/counters once
//     installObs() wires them) — never silent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace tlbsim::obs

namespace tlbsim::lb {

struct FlowStateConfig {
  /// Hard cap on tracked flows; reaching it evicts the LRU entry.
  std::size_t maxFlows = 1u << 20;
  /// First slot-pool allocation; doubles up to maxFlows as flows appear.
  std::size_t initialCapacity = 1024;
  /// Entries idle longer than this are dropped by purgeIdle().
  SimTime idleTimeout = seconds(1);
};

/// Non-template part: removal accounting and observability wiring, shared
/// by every FlowStateTable<State> instantiation.
class FlowStateTableBase {
 public:
  struct Stats {
    std::uint64_t inserted = 0;        ///< entries ever created
    std::uint64_t purgedIdle = 0;      ///< dropped by purgeIdle()
    std::uint64_t evictedCapacity = 0; ///< LRU-evicted at maxFlows
    std::size_t peakFlows = 0;         ///< high-water tracked count
    std::size_t maxProbeDistance = 0;  ///< worst robin-hood displacement
  };

  const Stats& stats() const { return stats_; }

  /// Register "lb.<label>.tracked_flows" / ".probe_distance_max" gauges
  /// and ".purged_flows" / ".evicted_flows" counters, then snapshot the
  /// current values. Decision-path cost when not installed: one
  /// null-pointer branch per removal batch, none per lookup.
  void installObs(obs::MetricsRegistry& metrics, const std::string& label);

 protected:
  void noteTracked(std::size_t n) {
    if (n > stats_.peakFlows) stats_.peakFlows = n;
    publishTracked(n);
  }
  void notePurged(std::uint64_t n, std::size_t tracked);
  void noteEvicted(std::size_t tracked);
  void noteProbe(std::size_t distance);

  Stats stats_;

 private:
  void publishTracked(std::size_t n);

  obs::Gauge* gTracked_ = nullptr;
  obs::Gauge* gProbe_ = nullptr;
  obs::Counter* cPurged_ = nullptr;
  obs::Counter* cEvicted_ = nullptr;
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
    if (buckets_.empty()) rehash(cfg_.initialCapacity);
    const std::uint32_t found = lookup(id);
    if (found != kNil) {
      Slot& s = slots_[found];
      const SimTime prev = s.lastSeen;
      s.lastSeen = now;
      moveToMru(found);
      return TouchResult{s.state, false, prev};
    }
    if (size_ == slots_.size()) {
      if (slots_.size() < cfg_.maxFlows) {
        rehash(slots_.size() * 2 < cfg_.maxFlows ? slots_.size() * 2
                                                 : cfg_.maxFlows);
      } else {
        // Full at the cap: reclaim the least-recently-seen entry.
        const std::uint32_t victim = lruHead_;
        TLBSIM_DCHECK(victim != kNil, "full table with an empty LRU list");
        onEvict(slots_[victim].key, slots_[victim].state);
        ++stats_.evictedCapacity;
        removeSlot(victim);
        noteEvicted(size_);
      }
    }
    const std::uint32_t idx = allocSlot(id, now);
    insertBucket(id, idx);
    ++stats_.inserted;
    noteTracked(size_);
    return TouchResult{slots_[idx].state, true, now};
  }

  TouchResult touch(FlowId id, SimTime now) {
    return touch(id, now, [](FlowId, State&) {});
  }

  /// Lookup without refreshing recency; nullptr when absent.
  State* find(FlowId id) {
    const std::uint32_t idx = lookup(id);
    return idx != kNil ? &slots_[idx].state : nullptr;
  }
  const State* find(FlowId id) const {
    const std::uint32_t idx = lookup(id);
    return idx != kNil ? &slots_[idx].state : nullptr;
  }

  bool contains(FlowId id) const { return lookup(id) != kNil; }

  /// `id`'s lastSeen timestamp, or nullptr when absent.
  const SimTime* lastSeenOf(FlowId id) const {
    const std::uint32_t idx = lookup(id);
    return idx != kNil ? &slots_[idx].lastSeen : nullptr;
  }

  /// Remove `id`, handing the dying entry to `onRemove(FlowId, State&)`.
  template <typename OnRemove>
  bool erase(FlowId id, OnRemove&& onRemove) {
    const std::uint32_t idx = lookup(id);
    if (idx == kNil) return false;
    onRemove(slots_[idx].key, slots_[idx].state);
    removeSlot(idx);
    noteTracked(size_);
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
    if (purged > 0) {
      stats_.purgedIdle += purged;
      notePurged(purged, size_);
    }
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

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Current slot-pool capacity (monotone, <= cfg.maxFlows).
  std::size_t capacity() const { return slots_.size(); }
  const FlowStateConfig& config() const { return cfg_; }

  /// Bytes resident in the table right now (slot pool + bucket array).
  /// The bound the soak test asserts: capacityBytes(maxFlows) is the
  /// ceiling no churn pattern can exceed.
  std::size_t residentBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           buckets_.capacity() * sizeof(Bucket);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Buckets per slot: a fixed 2x gives a <= 0.5 load factor, keeping
  /// robin-hood probe sequences short (max observed distance is exported
  /// as the probe_distance gauge).
  static constexpr std::size_t kBucketsPerSlot = 2;

  struct Bucket {
    FlowId key = kInvalidFlow;
    std::uint32_t slot = kNil;  ///< kNil marks an empty bucket
    std::uint32_t dist = 0;     ///< probe distance from the home bucket
  };

  struct Slot {
    FlowId key = kInvalidFlow;
    SimTime lastSeen;
    std::uint32_t prev = kNil;  ///< LRU link (or unused while free)
    std::uint32_t next = kNil;  ///< LRU link; free-list link while free
    State state{};
  };

  std::size_t homeOf(FlowId key) const {
    return static_cast<std::size_t>(flowHash(key)) & (buckets_.size() - 1);
  }

  std::uint32_t lookup(FlowId id) const {
    if (buckets_.empty()) return kNil;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = homeOf(id);
    for (std::uint32_t dist = 0;; ++dist, i = (i + 1) & mask) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNil || b.dist < dist) return kNil;  // robin-hood stop
      if (b.key == id) return b.slot;
    }
  }

  /// Robin-hood insert of a key that is known to be absent.
  void insertBucket(FlowId key, std::uint32_t slot) {
    const std::size_t mask = buckets_.size() - 1;
    Bucket carry{key, slot, 0};
    std::size_t i = homeOf(key);
    while (true) {
      Bucket& b = buckets_[i];
      if (b.slot == kNil) {
        b = carry;
        noteProbe(carry.dist);
        return;
      }
      if (b.dist < carry.dist) {
        std::swap(b, carry);  // take from the rich, carry the poor on
      }
      noteProbe(carry.dist);
      ++carry.dist;
      i = (i + 1) & mask;
    }
  }

  /// Backward-shift deletion of `key`'s bucket: close the gap by sliding
  /// every displaced follower one step toward its home.
  void eraseBucket(FlowId key) {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = homeOf(key);
    for (std::uint32_t dist = 0;; ++dist, i = (i + 1) & mask) {
      Bucket& b = buckets_[i];
      TLBSIM_DCHECK(b.slot != kNil && b.dist >= dist,
                    "eraseBucket: key not in the table");
      if (b.key == key) break;
    }
    while (true) {
      const std::size_t nxt = (i + 1) & mask;
      Bucket& here = buckets_[i];
      Bucket& after = buckets_[nxt];
      if (after.slot == kNil || after.dist == 0) {
        here = Bucket{};
        return;
      }
      here = after;
      --here.dist;
      i = nxt;
    }
  }

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
    eraseBucket(slots_[idx].key);
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

  /// Grow the slot pool to `newCap` (or build it initially) and rebuild
  /// the bucket array. Amortized over the doubling schedule; never runs
  /// again once the pool has reached its high-water capacity.
  void rehash(std::size_t newCap) {
    slots_.resize(newCap);
    // Thread the fresh tail slots onto the free list (newest first so
    // low indices are handed out first — deterministic either way).
    for (std::size_t i = slots_.size(); i-- > size_;) {
      slots_[i].next = freeHead_;
      freeHead_ = static_cast<std::uint32_t>(i);
    }
    std::size_t nBuckets = 1;
    while (nBuckets < newCap * kBucketsPerSlot) nBuckets <<= 1;
    buckets_.assign(nBuckets, Bucket{});
    for (std::uint32_t i = lruHead_; i != kNil; i = slots_[i].next) {
      insertBucket(slots_[i].key, i);
    }
  }

  FlowStateConfig cfg_;
  std::vector<Bucket> buckets_;
  std::vector<Slot> slots_;
  std::uint32_t freeHead_ = kNil;
  std::uint32_t lruHead_ = kNil;
  std::uint32_t lruTail_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace tlbsim::lb
