#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace tlbsim::sim {

void Scheduler::freeSlot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn = nullptr;  // destroy the closure now, not at slot reuse
  ++s.gen;         // every handle minted for this occupancy goes stale
  s.heapPos = freeHead_;
  freeHead_ = idx;
}

void Scheduler::pushHeap(SimTime when, std::uint64_t seq,
                         std::uint32_t slot) {
  if (when < now_) when = now_;  // Release clamp; Debug DCHECKed upstream
  heap_.push_back(Entry{when, seq, slot});
  siftUp(heap_.size() - 1);
}

std::size_t Scheduler::minChild(std::size_t first, std::size_t n) const {
  std::size_t best = first;
  const std::size_t last = std::min(first + kArity, n);
  for (std::size_t c = first + 1; c < last; ++c) {
    if (before(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void Scheduler::siftUp(std::size_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Scheduler::siftDown(std::size_t pos) {
  const Entry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t best = minChild(first, n);
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Scheduler::popTop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up: move the smaller child into the hole all the way to a leaf
  // without comparing against `last` — it came from the bottom, so it
  // almost always belongs near there — then sift it up from the leaf.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t best = minChild(first, n);
    place(hole, heap_[best]);
    hole = best;
  }
  heap_[hole] = last;
  siftUp(hole);
}

void Scheduler::removeFromHeap(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    // The replacement may violate the heap property in either direction.
    siftUp(pos);
    siftDown(slots_[last.slot].heapPos);
  }
}

bool Scheduler::cancelSlot(std::uint32_t slot, std::uint32_t gen) {
  if (!slotPending(slot, gen)) return false;
  removeFromHeap(slots_[slot].heapPos);
  freeSlot(slot);
  return true;
}

void Scheduler::growLane(Lane& lane) {
  const std::size_t cap = lane.ring.size();
  std::vector<LaneEntry> bigger(cap == 0 ? kLaneInitialCapacity : 2 * cap);
  for (std::uint32_t i = 0; i < lane.size; ++i) {
    bigger[i] = std::move(lane.ring[(lane.head + i) & (cap - 1)]);
  }
  lane.ring = std::move(bigger);
  lane.head = 0;
}

bool Scheduler::step(SimTime limit) {
  // The earliest pending key: the heap top or a lane head.
  Lane* from = nullptr;
  SimTime time = kMaxTime;
  std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
  if (!heap_.empty()) {
    time = heap_[0].time;
    seq = heap_[0].seq;
  }
  for (Lane& lane : lanes_) {
    if (lane.size == 0) continue;
    const LaneEntry& head = lane.ring[lane.head];
    if (before(head.time, head.seq, time, seq)) {
      time = head.time;
      seq = head.seq;
      from = &lane;
    }
  }
  if ((from == nullptr && heap_.empty()) || time > limit) {
    // Do not advance past the limit; leave the event pending.
    if (limit != kMaxTime && limit > now_) now_ = limit;
    return false;
  }
  TLBSIM_DCHECK(time >= now_,
                "event time regressed: %lld < now %lld (%s corruption?)",
                static_cast<long long>(time.ns()),
                static_cast<long long>(now_.ns()),
                from != nullptr ? "lane" : "heap");
  now_ = time;
  // Move the callback out and retire its entry *before* invoking, so the
  // event counts as fired inside its own callback: a handle to it is
  // inert, its slot is immediately reusable, and a callback may post into
  // the lane it fired from (even growing it).
  EventFn fn;
  if (from != nullptr) {
    fn = std::move(from->ring[from->head].fn);
    from->head = static_cast<std::uint32_t>((from->head + 1) &
                                            (from->ring.size() - 1));
    --from->size;
    --laneEvents_;
  } else {
    const std::uint32_t slot = heap_[0].slot;
    fn = std::move(slots_[slot].fn);
    popTop();
    freeSlot(slot);
  }
  ++executed_;
  fn();
  return true;
}

std::uint64_t Scheduler::run(SimTime limit) {
  runLimit_ = limit;
  for (std::size_t i = 0; i < periodics_.size(); ++i) {
    if (!periodics_[i].armed) armPeriodic(i);
  }
  std::uint64_t n = 0;
  while (step(limit)) ++n;
  return n;
}

void Scheduler::every(SimTime period, EventFn fn, SimTime start,
                      const char* name) {
  TLBSIM_DCHECK(period > 0_ns, "every() needs a positive period, got %lld ns",
                static_cast<long long>(period.ns()));
  Periodic timer;
  timer.period = period;
  timer.fn = std::move(fn);
  timer.nextDue = start;
  timer.name = name;
  periodics_.push_back(std::move(timer));
  armPeriodic(periodics_.size() - 1);
}

void Scheduler::armPeriodic(std::size_t idx) {
  Periodic& t = periodics_[idx];
  // Park ticks beyond the run limit so a bounded run() can drain the queue;
  // run() re-arms parked timers when the limit rises.
  if (t.nextDue > runLimit_) {
    t.armed = false;
    return;
  }
  t.armed = true;
  insert(t.nextDue, nextSeq_++, [this, idx] { firePeriodic(idx); });
}

void Scheduler::firePeriodic(std::size_t idx) {
  // periodics_ is a deque: `t` and the closure it runs stay put even if
  // the tick registers more timers.
  Periodic& t = periodics_[idx];
  ++periodicFires_;
  if (tickHook_) tickHook_(t.name, now_);
  t.fn();
  t.nextDue = now_ + t.period;
  armPeriodic(idx);
}

}  // namespace tlbsim::sim
