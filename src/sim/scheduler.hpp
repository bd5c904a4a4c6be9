// Discrete-event scheduler: the heart of the simulator.
//
// The event core is an *indexed* 4-ary min-heap whose entries carry their
// own keys:
//
//   heap_   the 4-ary heap of (time, seq, slot) entries, 24 bytes each.
//           Sifts compare keys stored contiguously in the array and never
//           touch a callback.
//   slots_  stable storage for pending callbacks plus each slot's current
//           heap position (the back-pointer in-place cancel needs) and a
//           generation counter. Freed slots go on an intrusive free list
//           and are reused, so the steady-state schedule/fire/cancel path
//           performs zero heap allocations once the vectors reach their
//           high-water capacity.
//
// Events are ordered by (time, seq); seq is a monotonically increasing
// sequence number assigned at schedule time, so events with equal
// timestamps fire in scheduling order and runs are deterministic. That
// total order is strict, which makes the firing order independent of the
// heap's arity and of how an entry is removed — the invariant the
// byte-identical-output tests lean on. step() pops bottom-up: the hole at
// the root walks down to a leaf along the smaller children (one compare
// per child, none against the displaced last entry), the last entry drops
// into it and sifts up, usually not at all.
//
// Cancellation is *in-place*: an EventHandle names its slot (plus a
// generation counter that invalidates stale handles), and cancel()
// removes the slot's heap entry with an O(log n) sift. No tombstones, no
// live-id hash set, no dead entries for pop() to skip.
//
// A seq can be reserved now and used later (reserveSeq() +
// scheduleReserved()): sim::DeadlineTimer re-arms lazily under the key an
// eager schedule() would have given it.
//
// Constant-delay lanes: post(delay, fn) skips the heap when `delay`
// matches one of kLanes FIFO lanes, or when a lane is empty and can be
// re-keyed to it. now() never decreases and seq only grows, so the
// entries of a lane, all posted at now() + the same delay, are already in
// (time, seq) order: a lane is a ring buffer with O(1) push and pop, and
// step() fires the smallest key among the heap top and the lane heads.
// Nearly every event a run makes is a link's delivery or wake post,
// drawn from a handful of repeated delays, so most events never touch
// the heap. The firing order is the same (time, seq) order either way.
//
// Callbacks are sim::EventFn — a small-buffer-optimized move-only
// callable (util::InlineFunction). Closures capturing up to
// kEventInlineBytes stay inline; every closure the per-packet path
// creates is pinned under that budget by tests/sim/alloc_count_test.
// schedule() and post() and their variants take the callable by
// forwarding reference and build it in the lane ring entry or heap slot
// it will fire from (InlineFunction::emplace), so a closure is not moved
// on its way in; step() moves it out once before calling it.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace tlbsim::sim {

/// Inline capture budget for event callbacks. Hot-path closures (link
/// delivery/wake, TCP timers, periodic re-arms) capture a pointer or
/// two plus a small index — far below this; the budget leaves headroom
/// without bloating the per-slot footprint.
inline constexpr std::size_t kEventInlineBytes = 48;

using EventFn = util::InlineFunction<void(), kEventInlineBytes>;

class DeadlineTimer;
class Scheduler;

/// Move-only owner of one pending event. Destroying or re-assigning the
/// handle cancels the event if it is still pending (RAII); release()
/// detaches instead. A handle whose event has fired (or was cancelled)
/// is inert: pending() is false and cancel() is a no-op — including
/// inside the event's own callback, where the event counts as fired.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(EventHandle&& other) noexcept
      : sched_(other.sched_), slot_(other.slot_), gen_(other.gen_) {
    other.sched_ = nullptr;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      cancel();
      sched_ = other.sched_;
      slot_ = other.slot_;
      gen_ = other.gen_;
      other.sched_ = nullptr;
    }
    return *this;
  }
  EventHandle(const EventHandle&) = delete;
  EventHandle& operator=(const EventHandle&) = delete;
  ~EventHandle() { cancel(); }

  /// True while the event is scheduled and has not fired or been
  /// cancelled.
  bool pending() const;

  /// Cancel the event in O(log n). Returns true if it was pending;
  /// idempotent otherwise.
  bool cancel();

  /// Drop ownership without cancelling: the event fires normally and the
  /// handle becomes inert.
  void release() { sched_ = nullptr; }

  explicit operator bool() const { return pending(); }

 private:
  friend class DeadlineTimer;
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  /// Hook invoked once per periodic-timer fire (observability). `name` is
  /// the timer's label, nullptr for anonymous timers.
  using PeriodicTickHook = util::InlineFunction<void(const char*, SimTime)>;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` ns from now, returning a cancellable
  /// handle. A negative delay is always a unit bug upstream (time never
  /// flows backwards in the simulation), so Debug builds reject it.
  /// `fn` is any callable an EventFn can hold, or an EventFn (moved in).
  template <typename F>
  [[nodiscard]] EventHandle schedule(SimTime delay, F&& fn) {
    checkDelay(delay);
    return scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute time `when`. A `when` in the past is a
  /// logic bug upstream (the caller computed a stale timestamp):
  /// Debug builds reject it via TLBSIM_DCHECK; Release builds clamp to
  /// now() so the event still fires and time stays monotone. Callers with
  /// a legitimately might-be-past timestamp must clamp explicitly
  /// (std::max(when, now())) — that states the intent and passes Debug.
  template <typename F>
  [[nodiscard]] EventHandle scheduleAt(SimTime when, F&& fn) {
    checkPast(when);
    const std::uint32_t slot = insert(when, nextSeq_++, std::forward<F>(fn));
    return EventHandle(this, slot, slots_[slot].gen);
  }

  /// Fire-and-forget variants: no handle, for events that are never
  /// cancelled (packet deliveries and link wakes, one-shot arming).
  /// post() appends to the lane keyed by `delay`, else claims an empty
  /// lane for it, else falls back to the heap; postAt() always uses the
  /// heap. A negative delay (Release) takes the heap's clamp to now().
  template <typename F>
  void post(SimTime delay, F&& fn) {
    checkDelay(delay);
    if (delay >= 0_ns) {
      if (Lane* lane = laneFor(delay)) {
        pushLane(*lane, std::forward<F>(fn));
        return;
      }
    }
    postAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  void postAt(SimTime when, F&& fn) {
    checkPast(when);
    insert(when, nextSeq_++, std::forward<F>(fn));
  }

  /// Take the sequence number the next schedule()/post() would have
  /// used, for a scheduleReserved() later. Reserving advances the counter
  /// exactly as scheduling does, so every other event keeps its seq.
  std::uint64_t reserveSeq() { return nextSeq_++; }

  /// Schedule `fn` under the key (when, seq), where `seq` came from
  /// reserveSeq() and is not pending. The event fires where one scheduled
  /// at reservation time for `when` would have: the key must still lie
  /// ahead of the event now firing, which holds whenever `when` is after
  /// now(), or equal to it with a seq reserved after the current event's.
  template <typename F>
  [[nodiscard]] EventHandle scheduleReserved(SimTime when, std::uint64_t seq,
                                             F&& fn) {
    checkPast(when);
    TLBSIM_DCHECK(seq < nextSeq_, "seq %llu was never reserved",
                  static_cast<unsigned long long>(seq));
    const std::uint32_t slot = insert(when, seq, std::forward<F>(fn));
    return EventHandle(this, slot, slots_[slot].gen);
  }

  /// Register `fn` to fire every `period` starting at `start`. Ticks whose
  /// time exceeds the current run limit are parked (so a bounded run()
  /// terminates) and revived by a later run() with a higher limit. With an
  /// unbounded run() the timer keeps the event queue alive forever — give
  /// run() a limit when periodic timers exist.
  ///
  /// `name` (a string literal or other pointer outliving the scheduler)
  /// labels the timer's ticks for the periodic-tick hook; nullptr keeps
  /// the timer anonymous.
  void every(SimTime period, EventFn fn, SimTime start = {},
             const char* name = nullptr);

  /// Install the per-tick trace hook (empty to remove). Without a hook a
  /// periodic fire costs one branch.
  void setPeriodicTickHook(PeriodicTickHook hook) {
    tickHook_ = std::move(hook);
  }

  /// Run events until the queue is empty or `limit` is reached.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime limit = kMaxTime);

  /// Run a single event; returns false if none pending (or past `limit`).
  bool step(SimTime limit = kMaxTime);

  /// Both count heap and lane entries alike, in O(1).
  bool empty() const { return heap_.empty() && laneEvents_ == 0; }
  std::size_t pendingEvents() const { return heap_.size() + laneEvents_; }
  std::uint64_t executedEvents() const { return executed_; }
  /// Posts that went to a lane rather than the heap, since construction.
  std::uint64_t lanePosts() const { return lanePosts_; }
  /// Periodic-timer fires, every timer alike, since construction.
  std::uint64_t periodicFires() const { return periodicFires_; }

  static constexpr SimTime kMaxTime = SimTime::max();

 private:
  friend class DeadlineTimer;
  friend class EventHandle;

  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint32_t kNoPos = 0xffffffffu;
  /// A link posts four common delays: data and ACK serialization (its
  /// wakes) and each plus propagation (its deliveries). Four lanes hold
  /// them; six or eight raised the lane share by under half a point on
  /// websearch_tlb and lossy_ecmp and were no faster (DESIGN §6d).
  static constexpr std::size_t kLanes = 4;
  static constexpr std::uint32_t kLaneInitialCapacity = 16;

  /// One heap element: the event's full key beside its slot, so sifts
  /// never load a slot to compare.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    EventFn fn;
    /// Heap position while pending; the next free slot (or kNoPos) while
    /// free. Only the generation tells the two states apart.
    std::uint32_t heapPos = kNoPos;
    std::uint32_t gen = 0;  ///< bumped on every free
  };

  /// A posted event waiting in a lane: its key beside its callback.
  struct LaneEntry {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;
  };

  /// FIFO of events posted with one delay: a ring buffer whose capacity
  /// is a power of two and only grows. Re-keyed only while empty, so its
  /// entries are always in (time, seq) order.
  struct Lane {
    SimTime delay = -1_ns;  ///< matches no post until claimed
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::vector<LaneEntry> ring;
  };

  struct Periodic {
    SimTime period;
    EventFn fn;
    SimTime nextDue;
    bool armed = false;
    const char* name = nullptr;
  };

  void checkDelay(SimTime delay) const {
    TLBSIM_DCHECK(delay >= 0_ns, "negative delay %lld ns at t=%lld",
                  static_cast<long long>(delay.ns()),
                  static_cast<long long>(now_.ns()));
  }
  void checkPast(SimTime when) const {
    TLBSIM_DCHECK(when >= now_,
                  "scheduleAt(%lld ns) is in the past (now %lld ns); clamp "
                  "explicitly with std::max(when, now()) if intended",
                  static_cast<long long>(when.ns()),
                  static_cast<long long>(now_.ns()));
  }

  static bool before(SimTime aTime, std::uint64_t aSeq, SimTime bTime,
                     std::uint64_t bSeq) {
    if (aTime != bTime) return aTime < bTime;
    return aSeq < bSeq;  // seq is unique -> strict total order
  }
  static bool before(const Entry& a, const Entry& b) {
    return before(a.time, a.seq, b.time, b.seq);
  }

  /// The lane keyed by `delay`, else an empty lane re-keyed to it, else
  /// nullptr. No two lanes ever share a key.
  Lane* laneFor(SimTime delay) {
    Lane* free = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.delay == delay) return &lane;
      if (free == nullptr && lane.size == 0) free = &lane;
    }
    if (free != nullptr) free->delay = delay;
    return free;
  }
  /// Appends `fn` to `lane`, built in its ring entry once the ring has
  /// grown.
  template <typename F>
  void pushLane(Lane& lane, F&& fn) {
    if (lane.size == lane.ring.size()) growLane(lane);
    const std::size_t mask = lane.ring.size() - 1;
    LaneEntry& e = lane.ring[(lane.head + lane.size) & mask];
    e.time = now_ + lane.delay;
    e.seq = nextSeq_++;
    e.fn.emplace(std::forward<F>(fn));
    ++lane.size;
    ++laneEvents_;
    ++lanePosts_;
  }
  void growLane(Lane& lane);

  std::uint32_t allocSlot() {
    if (freeHead_ != kNoPos) {
      const std::uint32_t idx = freeHead_;
      freeHead_ = slots_[idx].heapPos;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  void freeSlot(std::uint32_t idx);
  /// Puts `fn` in the heap under (when, seq), built in its slot once the
  /// slot vector has grown, and returns the slot.
  template <typename F>
  std::uint32_t insert(SimTime when, std::uint64_t seq, F&& fn) {
    const std::uint32_t slot = allocSlot();
    slots_[slot].fn.emplace(std::forward<F>(fn));
    pushHeap(when, seq, slot);
    return slot;
  }
  /// Adds the heap entry of a filled slot.
  void pushHeap(SimTime when, std::uint64_t seq, std::uint32_t slot);
  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heapPos = static_cast<std::uint32_t>(pos);
  }
  std::size_t minChild(std::size_t first, std::size_t n) const;
  void siftUp(std::size_t pos);
  void siftDown(std::size_t pos);
  void popTop();
  void removeFromHeap(std::size_t pos);
  bool cancelSlot(std::uint32_t slot, std::uint32_t gen);
  /// A free slot's generation has moved past every handle minted for it,
  /// so a matching generation means the slot is in the heap.
  bool slotPending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  /// Firing time of a pending slot.
  SimTime slotTime(std::uint32_t slot) const {
    return heap_[slots_[slot].heapPos].time;
  }

  void armPeriodic(std::size_t idx);
  void firePeriodic(std::size_t idx);

  std::vector<Slot> slots_;
  std::vector<Entry> heap_;
  std::uint32_t freeHead_ = kNoPos;
  Lane lanes_[kLanes];
  std::size_t laneEvents_ = 0;  ///< entries across all lanes
  /// A deque, so a tick that registers another timer (growing the
  /// container) leaves the running timer's record and closure in place.
  std::deque<Periodic> periodics_;
  PeriodicTickHook tickHook_;
  SimTime now_;
  SimTime runLimit_ = kMaxTime;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t lanePosts_ = 0;
  std::uint64_t periodicFires_ = 0;
};

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->slotPending(slot_, gen_);
}

inline bool EventHandle::cancel() {
  if (sched_ == nullptr) return false;
  Scheduler* s = sched_;
  sched_ = nullptr;
  return s->cancelSlot(slot_, gen_);
}

}  // namespace tlbsim::sim
