// sim::DeadlineTimer: a lazily re-armed timer must fire exactly where an
// eagerly cancelled-and-rescheduled EventHandle would, while keeping a
// single heap entry however often it is pushed back.
#include "sim/deadline_timer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace tlbsim::sim {
namespace {

TEST(DeadlineTimer, ManyRearmsFireOnceAtTheLastDeadline) {
  Scheduler s;
  DeadlineTimer t(s);
  int fired = 0;
  SimTime firedAt;
  const auto fn = [&] {
    ++fired;
    firedAt = s.now();
  };
  for (int i = 0; i < 1000; ++i) {
    t.arm(50_ns, fn);  // the RTO pattern: pushed back by every "ACK"
    ASSERT_EQ(s.pendingEvents(), 1u);
    s.run(s.now() + 1_ns);
    ASSERT_EQ(s.pendingEvents(), 1u);
    ASSERT_EQ(fired, 0);
  }
  EXPECT_EQ(t.deadline(), 1049_ns);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(firedAt, 1049_ns);
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(s.pendingEvents(), 0u);
  // The wake went back to sleep once per 50 ns of pushing, not per arm.
  EXPECT_LE(s.executedEvents(), 1u + 1000u / 49u + 1u);
}

TEST(DeadlineTimer, ShorterRearmFiresAtTheEarlierDeadline) {
  // A backoff reset: the new deadline lies before the pending wake.
  Scheduler s;
  DeadlineTimer t(s);
  std::vector<SimTime> firedAt;
  const auto fn = [&] { firedAt.push_back(s.now()); };
  t.arm(800_ns, fn);
  s.run(100_ns);
  t.arm(200_ns, fn);
  EXPECT_EQ(s.pendingEvents(), 1u);
  EXPECT_EQ(t.deadline(), 300_ns);
  s.run();
  EXPECT_EQ(firedAt, (std::vector<SimTime>{300_ns}));
  EXPECT_EQ(s.executedEvents(), 1u);
}

TEST(DeadlineTimer, CancelAndDestroyDisarm) {
  Scheduler s;
  int fired = 0;
  {
    DeadlineTimer t(s);
    t.arm(10_ns, [&fired] { ++fired; });
    EXPECT_TRUE(t.pending());
    EXPECT_TRUE(t.cancel());
    EXPECT_FALSE(t.pending());
    EXPECT_FALSE(t.cancel());
    t.arm(10_ns, [&fired] { ++fired; });
  }  // the destructor cancels the second arm
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(DeadlineTimer, CallbackSeesItselfDisarmedAndMayRearm) {
  Scheduler s;
  DeadlineTimer t(s);
  std::vector<SimTime> firedAt;
  struct Fire {
    Scheduler* s;
    DeadlineTimer* t;
    std::vector<SimTime>* firedAt;
    void operator()() const {
      EXPECT_FALSE(t->pending());
      firedAt->push_back(s->now());
      if (firedAt->size() < 3) t->arm(10_ns, *this);
    }
  };
  t.arm(10_ns, Fire{&s, &t, &firedAt});
  s.run();
  EXPECT_EQ(firedAt, (std::vector<SimTime>{10_ns, 20_ns, 30_ns}));
}

/// Both sides of the comparison: an EventHandle re-assigned on every arm
/// (cancel + schedule) and a DeadlineTimer.
struct EagerTimer {
  explicit EagerTimer(Scheduler& sched) : s(sched) {}
  Scheduler& s;
  EventHandle h;
  template <typename F>
  void arm(SimTime d, F fn) {
    h = s.schedule(d, fn);
  }
  void cancel() { h.cancel(); }
};
struct LazyTimer {
  explicit LazyTimer(Scheduler& s) : t(s) {}
  DeadlineTimer t;
  template <typename F>
  void arm(SimTime d, F fn) {
    t.arm(d, fn);
  }
  void cancel() { t.cancel(); }
};

template <typename Timer>
std::vector<int> tieScript() {
  Scheduler s;
  Timer t{s};
  std::vector<int> order;
  const auto fire = [&order] { order.push_back(99); };
  s.post(100_ns, [&order] { order.push_back(1); });
  t.arm(100_ns, fire);
  s.post(100_ns, [&order] { order.push_back(2); });
  t.arm(100_ns, fire);  // same deadline, later seq: now fires after 2
  s.post(100_ns, [&order] { order.push_back(3); });
  s.run();
  return order;
}

TEST(DeadlineTimer, SameTimestampTieFiresWhereEagerRearmWould) {
  const std::vector<int> eager = tieScript<EagerTimer>();
  EXPECT_EQ(eager, (std::vector<int>{1, 2, 99, 3}));
  EXPECT_EQ(tieScript<LazyTimer>(), eager);
}

/// Random posts, arms (later, earlier and equal deadlines, zero delays),
/// cancels and bounded runs on several timers; returns the firing order.
template <typename Timer>
std::vector<int> randomScript(std::uint64_t seed) {
  Scheduler s;
  Rng rng(seed);
  std::vector<int> order;
  std::deque<Timer> timers;
  for (int i = 0; i < 4; ++i) timers.emplace_back(s);
  int token = 0;
  for (int op = 0; op < 6000; ++op) {
    const double action = rng.uniform();
    if (action < 0.35) {
      const int tok = token++;
      s.post(SimTime::fromNs(rng.uniformInt(0, 300)),
             [&order, tok] { order.push_back(tok); });
    } else if (action < 0.75) {
      const std::size_t i = rng.uniformInt(timers.size());
      const int tok = 100000 + static_cast<int>(i);
      timers[i].arm(SimTime::fromNs(rng.uniformInt(0, 400)),
                    [&order, tok] { order.push_back(tok); });
    } else if (action < 0.8) {
      timers[rng.uniformInt(timers.size())].cancel();
    } else {
      s.run(s.now() + SimTime::fromNs(rng.uniformInt(0, 120)));
    }
  }
  s.run();
  return order;
}

class DeadlineTimerOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeadlineTimerOrder, MatchesEagerCancelAndReschedule) {
  const std::vector<int> eager = randomScript<EagerTimer>(GetParam());
  const std::vector<int> lazy = randomScript<LazyTimer>(GetParam());
  ASSERT_GT(eager.size(), 1000u);
  EXPECT_EQ(lazy, eager);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineTimerOrder,
                         ::testing::Values(31, 37, 41, 43));

}  // namespace
}  // namespace tlbsim::sim
