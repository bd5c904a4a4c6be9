// Counts global operator new/delete to prove the event core's claim:
// once warm, the schedule / fire / cancel path — including periodic
// timer re-arms and deadline-timer re-arms — performs zero heap
// allocations. Runs under the ASan CI jobs too, where the replacement
// operators still interpose above the sanitizer's malloc.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/deadline_timer.hpp"
#include "sim/scheduler.hpp"

namespace {
std::atomic<unsigned long long> g_newCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlbsim::sim {
namespace {

unsigned long long newCalls() {
  return g_newCalls.load(std::memory_order_relaxed);
}

TEST(AllocCount, CounterSeesHeapFallback) {
  // Sanity-check the instrumentation itself: an over-budget closure must
  // take EventFn's heap path and show up in the counter...
  struct Big {
    unsigned char pad[kEventInlineBytes + 16] = {};
    void operator()() const {}
  };
  const auto before = newCalls();
  EventFn heap{Big{}};
  const auto afterHeap = newCalls();
  // ...while a pointer-sized closure stays inline and does not.
  int x = 0;
  EventFn inlineFn{[&x] { ++x; }};
  const auto afterInline = newCalls();
  EXPECT_GT(afterHeap, before);
  EXPECT_EQ(afterInline, afterHeap);
}

TEST(AllocCount, SteadyStateEventPathIsAllocationFree) {
  Scheduler s;
  std::uint64_t fired = 0;

  // Warm-up: drive slots_/heap_ to a high-water capacity well above
  // anything the measured phase needs, allocate the first rings of the
  // lanes its 3 ns and 7 ns posts use, and register the periodic timer
  // (its Periodic record is a one-time allocation).
  {
    std::vector<EventHandle> warm;
    warm.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      warm.push_back(
          s.schedule(SimTime::fromNs(i % 97), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < warm.size(); i += 2) warm[i].cancel();
    for (auto& h : warm) h.release();
    s.post(3_ns, [&fired] { ++fired; });
    s.post(7_ns, [&fired] { ++fired; });
  }
  s.every(50_ns, [&fired] { ++fired; }, /*start=*/50_ns, "tick");
  s.run(s.now() + 2000_ns);

  // Measured phase: schedule / cancel / fire churn, with periodic ticks
  // and a deadline timer interleaved, entirely within the warmed
  // capacity. The timer is pushed back (early wakes re-post), pulled in
  // (the wake is replaced) and left alone long enough to fire.
  DeadlineTimer timer(s);
  std::uint64_t timerFires = 0;
  const auto before = newCalls();
  EventHandle rto;
  for (int round = 0; round < 2000; ++round) {
    s.post(3_ns, [&fired] { ++fired; });
    s.post(7_ns, [&fired] { ++fired; });
    rto = s.schedule(40_ns, [&fired] { ++fired; });  // re-assign cancels
    EventHandle cancelled = s.schedule(11_ns, [&fired] { ++fired; });
    cancelled.cancel();
    if (round % 5 != 4) {
      timer.arm(round % 3 == 0 ? 10_ns : 40_ns,
                [&timerFires] { ++timerFires; });
    }
    s.run(s.now() + 25_ns);
  }
  rto.cancel();
  timer.cancel();
  s.run(s.now() + 100_ns);
  const auto after = newCalls();
  EXPECT_EQ(after, before) << (after - before)
                           << " allocations on the steady-state path";
  EXPECT_GT(fired, 0u);
  EXPECT_GT(timerFires, 0u);
}

}  // namespace
}  // namespace tlbsim::sim
