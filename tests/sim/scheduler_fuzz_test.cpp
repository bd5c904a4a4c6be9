// Property tests for the event core.
//
// The first family checks accounting (pending/executed counters stay
// exact under random interleavings of schedule / cancel / step). The
// second checks *firing order* against an executable reference model: a
// flat list of (time, seq) records fired by a sort — the semantics the
// indexed heap must reproduce exactly for runs to be deterministic and
// byte-identical across heap layouts. Its schedule stream mixes in keys
// reserved earlier and posted later (reserveSeq + scheduleReserved, the
// deadline timer's primitive), and post()s that ride the constant-delay
// lanes: repeated delays that outnumber the lanes, one-off delays,
// re-posts from inside firing callbacks, and heap entries that tie with
// lane entries on the timestamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace tlbsim::sim {
namespace {

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, AccountingStaysExact) {
  Scheduler sched;
  Rng rng(GetParam());
  std::vector<EventHandle> live;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  SimTime lastNow;

  for (int op = 0; op < 8000; ++op) {
    const double action = rng.uniform();
    if (action < 0.5) {
      const SimTime delay = SimTime::fromNs(rng.uniformInt(0, 1000));
      live.push_back(sched.schedule(delay, [&fired] { ++fired; }));
      ++scheduled;
    } else if (action < 0.7 && !live.empty()) {
      const std::size_t idx = rng.uniformInt(live.size());
      if (live[idx].cancel()) ++cancelled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      sched.step();
      EXPECT_GE(sched.now(), lastNow);
      lastNow = sched.now();
    }
    ASSERT_EQ(sched.pendingEvents(), scheduled - cancelled - fired);
  }

  for (auto& h : live) h.release();  // let the tail fire
  sched.run();
  EXPECT_EQ(sched.pendingEvents(), 0u);
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_EQ(sched.executedEvents(), fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(3, 5, 7, 9));

// Reference model: every scheduled event is a record; firing order is a
// stable sort by (time, schedule order). The real scheduler must emit
// tokens in exactly the model's order, whatever the heap does internally.
class SchedulerOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerOrderFuzz, FiringOrderMatchesReferenceModel) {
  Scheduler sched;
  Rng rng(GetParam());

  struct Ref {
    SimTime time;
    std::uint64_t order;  ///< position in global scheduling order
    int token;
    bool cancelled = false;
    bool fired = false;
  };
  std::vector<Ref> model;
  // Handle index i owns model record liveRef[i].
  std::vector<EventHandle> live;
  std::vector<std::size_t> liveRef;
  std::vector<int> actual;
  std::uint64_t order = 0;
  int nextToken = 0;
  // Keys reserved but not yet posted: the scheduler's seq beside the
  // model's order position taken at reservation time.
  struct Reservation {
    std::uint64_t seq;
    std::uint64_t order;
  };
  std::vector<Reservation> reserved;

  // Fire every non-cancelled model record with time <= t, in (time,
  // order) order, and append its token to `expected`.
  std::vector<int> expected;
  const auto modelRunTo = [&](SimTime t) {
    std::vector<Ref*> due;
    for (auto& r : model) {
      if (!r.cancelled && !r.fired && r.time <= t) due.push_back(&r);
    }
    std::sort(due.begin(), due.end(), [](const Ref* a, const Ref* b) {
      if (a->time != b->time) return a->time < b->time;
      return a->order < b->order;
    });
    for (Ref* r : due) {
      r->fired = true;
      expected.push_back(r->token);
    }
  };

  // Six repeated delays outnumber the four lanes, so lanes are claimed,
  // drained and re-keyed, and some posts fall back to the heap; so does
  // the occasional one-off delay.
  const std::int64_t kRepeated[] = {0, 7, 12, 40, 125, 320};
  const auto repeatedDelay = [&] {
    return SimTime::fromNs(kRepeated[rng.uniformInt(std::size(kRepeated))]);
  };
  const auto postDelay = [&] {
    return rng.uniform() < 0.9 ? repeatedDelay()
                               : SimTime::fromNs(rng.uniformInt(0, 500));
  };
  // A posted event may post again when it fires, so a lane grows while
  // it drains. Handle-less events are never cancelled.
  std::uint64_t posts = 0;
  std::function<void(SimTime, int)> post = [&](SimTime delay, int depth) {
    ++posts;
    const int token = nextToken++;
    model.push_back(Ref{sched.now() + delay, order++, token});
    sched.post(delay, [&, token, depth] {
      actual.push_back(token);
      if (depth < 3 && rng.uniform() < 0.4) post(postDelay(), depth + 1);
    });
  };

  for (int op = 0; op < 4000; ++op) {
    const double action = rng.uniform();
    if (action < 0.25) {
      post(postDelay(), 0);
    } else if (action < 0.3) {
      // A heap entry at a lane's delay: equal timestamps with lane
      // entries posted now, ordered by seq alone.
      const SimTime when = sched.now() + repeatedDelay();
      const int token = nextToken++;
      model.push_back(Ref{when, order++, token});
      sched.postAt(when, [&actual, token] { actual.push_back(token); });
    } else if (action < 0.55) {
      const SimTime delay = rng.uniform() < 0.3
                                ? repeatedDelay()
                                : SimTime::fromNs(rng.uniformInt(0, 500));
      const int token = nextToken++;
      model.push_back(Ref{sched.now() + delay, order++, token});
      liveRef.push_back(model.size() - 1);
      live.push_back(
          sched.schedule(delay, [&actual, token] { actual.push_back(token); }));
    } else if (action < 0.63) {
      if (reserved.empty() || rng.uniform() < 0.5) {
        reserved.push_back(Reservation{sched.reserveSeq(), order++});
      } else {
        // Post under an old key: it sorts by its reservation, not by now.
        const std::size_t k = rng.uniformInt(reserved.size());
        const Reservation r = reserved[k];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
        const SimTime when =
            sched.now() + SimTime::fromNs(rng.uniformInt(0, 500));
        const int token = nextToken++;
        model.push_back(Ref{when, r.order, token});
        liveRef.push_back(model.size() - 1);
        live.push_back(sched.scheduleReserved(
            when, r.seq, [&actual, token] { actual.push_back(token); }));
      }
    } else if (action < 0.8 && !live.empty()) {
      const std::size_t idx = rng.uniformInt(live.size());
      const bool was = live[idx].cancel();
      Ref& r = model[liveRef[idx]];
      EXPECT_EQ(was, !r.cancelled && !r.fired);
      if (was) r.cancelled = true;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      liveRef.erase(liveRef.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const SimTime until =
          sched.now() + SimTime::fromNs(rng.uniformInt(0, 200));
      sched.run(until);
      modelRunTo(until);
      ASSERT_EQ(actual, expected) << "divergence after run(" << until.ns()
                                  << " ns), op " << op;
      const auto pending = std::count_if(
          model.begin(), model.end(),
          [](const Ref& r) { return !r.cancelled && !r.fired; });
      ASSERT_EQ(sched.pendingEvents(), static_cast<std::size_t>(pending));
      // Drop handles for fired events so RAII destruction later cannot
      // cancel anything the model considers fired.
      for (std::size_t i = live.size(); i-- > 0;) {
        if (!live[i].pending()) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          liveRef.erase(liveRef.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
  }

  for (auto& h : live) h.release();
  sched.run();
  modelRunTo(Scheduler::kMaxTime);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(sched.executedEvents(), expected.size());
  EXPECT_TRUE(sched.empty());
  // Both paths were exercised: most posts used a lane, some did not.
  EXPECT_GT(sched.lanePosts(), posts / 2);
  EXPECT_LT(sched.lanePosts(), posts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrderFuzz,
                         ::testing::Values(11, 13, 17, 19, 23));

TEST(SchedulerFuzz, CancelDuringCallbackIsSafe) {
  Scheduler sched;
  EventHandle second;
  bool secondFired = false;
  sched.post(10_ns, [&] { second.cancel(); });
  second = sched.schedule(20_ns, [&] { secondFired = true; });
  sched.run();
  EXPECT_FALSE(secondFired);
  EXPECT_EQ(sched.pendingEvents(), 0u);
}

TEST(SchedulerFuzz, CancelFromInsideOwnCallback) {
  // The slot is freed before the callback runs, so self-cancel is inert
  // and the slot is immediately reusable for events scheduled inside the
  // callback.
  Scheduler sched;
  EventHandle self;
  bool rescheduled = false;
  self = sched.schedule(10_ns, [&] {
    EXPECT_FALSE(self.cancel());
    sched.post(5_ns, [&] { rescheduled = true; });
  });
  sched.run();
  EXPECT_TRUE(rescheduled);
  EXPECT_EQ(sched.executedEvents(), 2u);
}

TEST(SchedulerFuzz, ReschedulingDuringRunKeepsOrder) {
  // A callback that re-arms its own timer (the RTO pattern): each firing
  // must see the handle inert, and the re-armed event must interleave
  // correctly with an independent event stream.
  Scheduler sched;
  std::vector<int> order;
  EventHandle rto;
  int rearms = 0;
  struct Rearm {
    Scheduler& sched;
    EventHandle& rto;
    int& rearms;
    std::vector<int>& order;
    void fire() {
      order.push_back(100 + rearms);
      if (++rearms < 3) {
        rto = sched.schedule(20_ns, [this] { fire(); });
      }
    }
  } rearm{sched, rto, rearms, order};
  rto = sched.schedule(20_ns, [&rearm] { rearm.fire(); });
  for (int i = 0; i < 6; ++i) {
    sched.post(SimTime::fromNs(10 + 10 * i),
               [&order, i] { order.push_back(i); });
  }
  sched.run();
  // 10:0 · 20: rto (scheduled before the t=20 post) then 1 · 30:2 ·
  // 40: 3 then the re-armed rto (re-armed later, so later seq) · 50:4 ·
  // 60: 5 then rto.
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 3, 101, 4, 5, 102}));
}

TEST(SchedulerFuzz, ScheduleDuringCallbackRuns) {
  Scheduler sched;
  struct Chain {
    Scheduler& sched;
    int depth = 0;
    void fire() {
      if (++depth < 100) sched.post(1_ns, [this] { fire(); });
    }
  } chain{sched};
  sched.post(0_ns, [&chain] { chain.fire(); });
  sched.run();
  EXPECT_EQ(chain.depth, 100);
}

}  // namespace
}  // namespace tlbsim::sim
