// One-shot timer re-armed far more often than it fires — the TCP
// retransmission timeout, pushed back by nearly every ACK — without a
// cancel and an insert per re-arm.
//
// arm() records the deadline and reserves the sequence number an eager
// schedule() would have taken at that moment (Scheduler::reserveSeq).
// The heap holds at most one wake entry per timer:
//   * a re-arm to a deadline at or after the pending wake leaves the wake
//     where it is;
//   * a wake that finds a newer arm than the one it was posted for
//     re-posts itself under that arm's reserved (deadline, seq) key;
//   * a re-arm to an earlier deadline (a backoff reset) replaces the wake.
// The callback therefore runs at exactly the (time, seq) position cancel-
// and-reschedule would give it, and every other event keeps its seq: the
// firing order is unchanged. The only visible cost is the early wakes
// themselves, which count in Scheduler::executedEvents().
#pragma once

#include <cstdint>
#include <utility>

#include "sim/scheduler.hpp"

namespace tlbsim::sim {

class DeadlineTimer {
 public:
  explicit DeadlineTimer(Scheduler& sched) : sched_(&sched) {}
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;
  ~DeadlineTimer() { cancel(); }

  /// Fire `fn` `delay` from now, replacing any earlier arm. A pending wake
  /// keeps the callback it was posted with, so every arm of one timer
  /// must pass the same callback. The wake closure must stay inline: `fn`
  /// may capture at most kEventInlineBytes minus 16 bytes.
  template <typename F>
  void arm(SimTime delay, F fn) {
    sched_->checkDelay(delay);
    deadline_ = sched_->now() + delay;
    seq_ = sched_->reserveSeq();
    if (pending()) {
      if (sched_->slotTime(slot_) <= deadline_) return;  // wakes early
      sched_->cancelSlot(slot_, gen_);
    }
    post(Wake<F>{this, seq_, std::move(fn)});
  }

  /// True from arm() until the callback starts or cancel(); false inside
  /// the callback, so it may re-arm.
  bool pending() const { return sched_->slotPending(slot_, gen_); }

  /// Disarm. Returns true if the timer was pending.
  bool cancel() { return sched_->cancelSlot(slot_, gen_); }

  /// Deadline of the latest arm.
  SimTime deadline() const { return deadline_; }

 private:
  /// The heap entry's closure: the user's callback plus the seq of the
  /// arm it was posted for.
  template <typename F>
  struct Wake {
    DeadlineTimer* timer;
    std::uint64_t seq;
    F fn;
    void operator()() {
      if (seq == timer->seq_) {
        fn();
      } else {
        timer->post(Wake{timer, timer->seq_, fn});  // early: sleep on
      }
    }
  };

  template <typename F>
  void post(Wake<F> wake) {
    static_assert(EventFn::fitsInline<Wake<F>>(),
                  "timer callback too large to stay inline");
    EventHandle h = sched_->scheduleReserved(deadline_, seq_, std::move(wake));
    slot_ = h.slot_;  // the timer already knows its scheduler
    gen_ = h.gen_;
    h.release();
  }

  Scheduler* sched_;
  std::uint32_t slot_ = Scheduler::kNoPos;  ///< wake entry, if gen_ matches
  std::uint32_t gen_ = 0;
  SimTime deadline_;
  std::uint64_t seq_ = 0;  ///< reserved by the latest arm
};

}  // namespace tlbsim::sim
