#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace tlbsim::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.post(30_ns, [&] { order.push_back(3); });
  s.post(10_ns, [&] { order.push_back(1); });
  s.post(20_ns, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30_ns);
}

TEST(Scheduler, EqualTimestampsFireInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.post(5_ns, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesMonotonically) {
  Scheduler s;
  SimTime last = -1_ns;
  for (int i = 0; i < 50; ++i) {
    s.post(SimTime::fromNs(i * 7 % 13), [&s, &last] {
      EXPECT_GE(s.now(), last);
      last = s.now();
    });
  }
  s.run();
}

// Satellite: a past `when` is a Debug check and a Release clamp. Both
// branches are exercised — the Debug one through an installed failure
// handler so the test can observe the check without dying.
#ifdef NDEBUG
TEST(Scheduler, PastTimesClampToNowInRelease) {
  Scheduler s;
  s.post(100_ns, [] {});
  s.run();
  bool fired = false;
  s.postAt(50_ns, [&] { fired = true; });  // in the past: clamps to now
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 100_ns);  // did not go backwards
}
#else
TEST(Scheduler, PastTimesTripDebugCheck) {
  Scheduler s;
  s.post(100_ns, [] {});
  s.run();
  auto* prev = check::setFailureHandler(
      [](const char*, int, const char*, const char*) {});
  // setFailureHandler resets the counter, so read it after installing
  // and before restoring.
  const long before = check::failureCount();
  bool fired = false;
  s.postAt(50_ns, [&] { fired = true; });
  const long after = check::failureCount();
  check::setFailureHandler(prev);
  EXPECT_EQ(after, before + 1);
  // With the failure suppressed the event still clamps and fires: the
  // check reports the bug, the clamp keeps time monotone either way.
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 100_ns);
}

TEST(Scheduler, NegativeDelayTripsDebugCheck) {
  Scheduler s;
  auto* prev = check::setFailureHandler(
      [](const char*, int, const char*, const char*) {});
  const long before = check::failureCount();
  s.post(-5_ns, [] {});
  const long after = check::failureCount();
  check::setFailureHandler(prev);
  // Trips twice: the negative-delay check, then (with the failure
  // suppressed) the derived past-timestamp check in postAt().
  EXPECT_EQ(after, before + 2);
}
#endif

TEST(Scheduler, ExplicitClampPassesBothBuildTypes) {
  // The documented pattern for a might-be-past timestamp: clamp at the
  // call site. Must not trip the Debug check.
  Scheduler s;
  s.post(100_ns, [] {});
  s.run();
  bool fired = false;
  s.postAt(std::max(50_ns, s.now()), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 100_ns);
}

TEST(EventHandle, CancelPendingEvent) {
  Scheduler s;
  bool fired = false;
  EventHandle h = s.schedule(10_ns, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_FALSE(fired);
}

TEST(EventHandle, DestructorCancels) {
  Scheduler s;
  bool fired = false;
  {
    EventHandle h = s.schedule(10_ns, [&] { fired = true; });
    EXPECT_EQ(s.pendingEvents(), 1u);
  }
  EXPECT_EQ(s.pendingEvents(), 0u);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(EventHandle, MoveTransfersOwnership) {
  Scheduler s;
  bool fired = false;
  EventHandle a = s.schedule(10_ns, [&] { fired = true; });
  EventHandle b = std::move(a);
  EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.pending());
  a.cancel();  // moved-from handle is inert
  EXPECT_TRUE(b.pending());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(EventHandle, MoveAssignCancelsPreviousEvent) {
  Scheduler s;
  bool firstFired = false;
  bool secondFired = false;
  EventHandle h = s.schedule(10_ns, [&] { firstFired = true; });
  h = s.schedule(20_ns, [&] { secondFired = true; });
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_FALSE(firstFired);
  EXPECT_TRUE(secondFired);
}

TEST(EventHandle, ReleaseDetachesWithoutCancelling) {
  Scheduler s;
  bool fired = false;
  {
    EventHandle h = s.schedule(10_ns, [&] { fired = true; });
    h.release();
  }
  s.run();
  EXPECT_TRUE(fired);
}

TEST(EventHandle, InertAfterFire) {
  Scheduler s;
  EventHandle h = s.schedule(10_ns, [] {});
  s.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(EventHandle, DoubleCancelIsNoop) {
  Scheduler s;
  EventHandle h = s.schedule(10_ns, [] {});
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());
  EXPECT_TRUE(s.empty());
}

TEST(EventHandle, StaleAfterSlotReuse) {
  // A fired event's slot is reused by the next schedule; the generation
  // counter keeps the old handle from reaching through to the new event.
  Scheduler s;
  EventHandle old = s.schedule(10_ns, [] {});
  s.run();
  bool fired = false;
  EventHandle fresh = s.schedule(10_ns, [&] { fired = true; });
  EXPECT_FALSE(old.pending());
  EXPECT_FALSE(old.cancel());  // must NOT cancel the reused slot
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(EventHandle, CancelInsideOwnCallbackIsNoop) {
  // By the time a callback runs its event has fired: the handle is inert
  // and cancelling through it must not disturb the (already reusable)
  // slot.
  Scheduler s;
  EventHandle h;
  bool cancelled = true;
  h = s.schedule(10_ns, [&] { cancelled = h.cancel(); });
  s.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(s.executedEvents(), 1u);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler s;
  EventHandle a = s.schedule(1_ns, [] {});
  s.post(2_ns, [] {});
  EXPECT_EQ(s.pendingEvents(), 2u);
  a.cancel();
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(s.pendingEvents(), 0u);
  EXPECT_EQ(s.executedEvents(), 1u);
}

TEST(Scheduler, RunLimitStopsBeforeLaterEvents) {
  Scheduler s;
  bool early = false;
  bool late = false;
  s.post(10_ns, [&] { early = true; });
  s.post(100_ns, [&] { late = true; });
  s.run(50_ns);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), 50_ns);  // clock advances to the limit
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  struct Chain {
    Scheduler& s;
    int depth = 0;
    void fire() {
      if (++depth < 5) s.post(10_ns, [this] { fire(); });
    }
  } chain{s};
  s.post(0_ns, [&chain] { chain.fire(); });
  s.run();
  EXPECT_EQ(chain.depth, 5);
  EXPECT_EQ(s.now(), 40_ns);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.post(1_ns, [&] { ++count; });
  s.post(2_ns, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PeriodicTimerFiresRepeatedly) {
  Scheduler s;
  int ticks = 0;
  s.every(100_ns, [&] { ++ticks; }, /*start=*/100_ns);
  s.run(1000_ns);
  EXPECT_EQ(ticks, 10);  // t = 100, 200, ..., 1000
}

TEST(Scheduler, PeriodicTimerStopsAtRunLimit) {
  Scheduler s;
  int ticks = 0;
  s.every(100_ns, [&] { ++ticks; }, /*start=*/100_ns);
  s.run(350_ns);
  // After the limited run the queue should not grow unboundedly; re-running
  // with a longer limit resumes ticking.
  EXPECT_EQ(ticks, 3);
  s.run(600_ns);
  EXPECT_EQ(ticks, 6);
}

TEST(Scheduler, PeriodicTickHookSeesName) {
  Scheduler s;
  int hooked = 0;
  const char* seen = nullptr;
  s.setPeriodicTickHook([&](const char* name, SimTime) {
    ++hooked;
    seen = name;
  });
  s.every(100_ns, [] {}, /*start=*/100_ns, "ctrl");
  s.run(300_ns);
  EXPECT_EQ(hooked, 3);
  EXPECT_STREQ(seen, "ctrl");
}

TEST(Scheduler, PeriodicTickMayRegisterMoreTimers) {
  // The tick grows the timer table while its own closure runs; the
  // closure's captures and the timer's record must not move (ASan reports
  // a heap-use-after-free on the reads after every() if they do).
  Scheduler s;
  int spawned = 0;
  int childTicks = 0;
  s.every(
      100_ns,
      [&s, &spawned, &childTicks] {
        for (int i = 0; i < 16; ++i) {
          s.every(1000_ns, [&childTicks] { ++childTicks; },
                  /*start=*/s.now() + 1000_ns);
        }
        ++spawned;
      },
      /*start=*/100_ns);
  s.run(300_ns);
  EXPECT_EQ(spawned, 3);
  EXPECT_EQ(childTicks, 0);
  s.run(1100_ns);
  EXPECT_EQ(spawned, 11);
  EXPECT_EQ(childTicks, 16);  // the first tick's children, once each
}

TEST(Scheduler, ReservedSeqKeepsItsPlaceInTheOrder) {
  // A key reserved before another post fires before it at the same time,
  // even though it was posted later; reserving shifts no other seq.
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t early = s.reserveSeq();
  s.post(10_ns, [&] { order.push_back(2); });
  EventHandle h =
      s.scheduleReserved(10_ns, early, [&] { order.push_back(1); });
  s.post(10_ns, [&] { order.push_back(3); });
  EXPECT_TRUE(h.pending());
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerLanes, PendingCountsLaneEntries) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  s.post(10_ns, [] {});
  s.post(10_ns, [] {});
  s.post(20_ns, [] {});
  ASSERT_EQ(s.lanePosts(), 3u);  // nothing is in the heap
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.pendingEvents(), 3u);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.pendingEvents(), 2u);
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pendingEvents(), 0u);
  EXPECT_EQ(s.executedEvents(), 3u);
}

TEST(SchedulerLanes, StepStopsAtALaneHeadPastTheLimit) {
  Scheduler s;
  std::vector<int> order;
  s.post(100_ns, [&] { order.push_back(2); });
  s.post(30_ns, [&] { order.push_back(1); });
  ASSERT_EQ(s.lanePosts(), 2u);
  EXPECT_TRUE(s.step(50_ns));  // the 30 ns lane head is within the limit
  EXPECT_FALSE(s.step(50_ns));  // the 100 ns one is not
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), 50_ns);  // the clock stops at the limit
  EXPECT_EQ(s.pendingEvents(), 1u);
  EXPECT_TRUE(s.step(100_ns));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 100_ns);
}

TEST(SchedulerLanes, DestructionReleasesPendingLaneClosuresOnce) {
  int released = 0;
  auto owner = std::shared_ptr<int>(new int(0), [&released](const int* p) {
    ++released;
    delete p;
  });
  const std::weak_ptr<int> watch = owner;
  {
    Scheduler s;
    // Fire a few first so the ring's head has moved, then post enough to
    // wrap it and grow it: pending closures are relocated on the way.
    for (int i = 0; i < 10; ++i) s.post(10_ns, [owner] {});
    s.run();
    for (int i = 0; i < 40; ++i) s.post(10_ns, [owner] {});
    ASSERT_EQ(s.lanePosts(), 50u);
    EXPECT_EQ(watch.use_count(), 41);
    owner.reset();
    EXPECT_EQ(released, 0);
  }
  EXPECT_EQ(released, 1);
  EXPECT_TRUE(watch.expired());
}

// --- in-place events: a posted closure is built where it waits ---------

/// How often a Counted closure was moved: by the time its post returned,
/// and by the time it ran.
struct MoveCounts {
  int atPost = -1;
  int atFire = -1;
  int moves = 0;
};

/// A closure whose move constructor counts. It is not trivially copyable,
/// so EventFn keeps it behind a manager that moves it with that
/// constructor: every hand-off shows.
struct Counted {
  explicit Counted(MoveCounts* counts) : c(counts) {}
  Counted(Counted&& other) noexcept : c(other.c) { ++c->moves; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  void operator()() const { c->atFire = c->moves; }
  MoveCounts* c;
};
static_assert(EventFn::fitsInline<Counted>() &&
              !EventFn::relocatesByCopy<Counted>());

/// Posts a Counted closure through every entry point of `q` (a Scheduler
/// or a Simulator), on a lane and on the heap, and runs them all.
template <typename Queue>
std::vector<MoveCounts> postEveryWay(Queue& q) {
  // Warm the heap's slot vector first: a vector that grows relocates the
  // closures it holds, which is not a hand-off.
  for (int i = 0; i < 8; ++i) q.postAt(SimTime::fromNs(i), [] {});
  q.run();
  std::vector<MoveCounts> c(5);
  const auto post = [&](MoveCounts& m, auto how) {
    how(Counted(&m));
    m.atPost = m.moves;
  };
  post(c[0], [&](Counted&& f) { q.post(10_ns, std::move(f)); });  // lane
  post(c[1], [&](Counted&& f) { q.postAt(20_ns, std::move(f)); });
  EventHandle h2;
  post(c[2], [&](Counted&& f) { h2 = q.schedule(30_ns, std::move(f)); });
  // Three more delays claim the other lanes; a fifth finds none free and
  // takes the heap.
  for (int d = 1; d <= 3; ++d) q.post(SimTime::fromNs(d), [] {});
  post(c[3], [&](Counted&& f) { q.post(40_ns, std::move(f)); });
  EventHandle h4;
  post(c[4], [&](Counted&& f) { h4 = q.scheduleAt(50_ns, std::move(f)); });
  q.run();
  return c;
}

TEST(SchedulerInPlace, PostedClosureIsMovedOnceIntoItsSlot) {
  Scheduler s;
  const std::vector<MoveCounts> counts = postEveryWay(s);
  EXPECT_EQ(s.lanePosts(), 4u);  // the 10 ns post and the three fillers
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].atPost, 1) << "entry point " << i;
    EXPECT_GE(counts[i].atFire, 1) << "entry point " << i;
    EXPECT_LE(counts[i].atFire, 2) << "entry point " << i;  // step()'s
  }
}

TEST(SchedulerInPlace, SimulatorForwardsWithoutAMove) {
  Simulator sim;
  const std::vector<MoveCounts> counts = postEveryWay(sim);
  EXPECT_EQ(sim.scheduler().lanePosts(), 4u);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].atPost, 1) << "entry point " << i;
    EXPECT_GE(counts[i].atFire, 1) << "entry point " << i;
    EXPECT_LE(counts[i].atFire, 2) << "entry point " << i;
  }
}

TEST(SchedulerInPlace, AnEventFnIsMovedInOnce) {
  Simulator sim;
  MoveCounts c;
  EventFn fn{Counted(&c)};
  ASSERT_EQ(c.moves, 1);  // into fn
  sim.post(10_ns, std::move(fn));
  EXPECT_EQ(c.moves, 2);  // fn into its lane entry
  sim.run();
  EXPECT_LE(c.atFire, 3);
}

TEST(Simulator, PeriodicTimerFiresRepeatedly) {
  Simulator sim;
  int ticks = 0;
  sim.every(100_ns, [&] { ++ticks; }, /*start=*/100_ns);
  sim.run(1000_ns);
  EXPECT_EQ(ticks, 10);  // t = 100, 200, ..., 1000
}

TEST(Simulator, ScheduleAndCancelThroughFacade) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule(10_ns, [&] { fired = true; });
  EXPECT_TRUE(h.cancel());
  sim.run(100_ns);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 100_ns);
}

}  // namespace
}  // namespace tlbsim::sim
