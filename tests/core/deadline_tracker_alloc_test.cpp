// Counts global operator new to pin TLB's deadline reservoir to its
// samples: a tracker holds no memory before its first deadline, grows
// with what it sees, and a percentile() call (one per 500 us control tick
// under autoDeadline) selects its rank in a kept buffer instead of
// copying and sorting the reservoir. Separate test binary (like
// sim_alloc_count_test) so the replaced operators cannot perturb other
// tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/deadline_tracker.hpp"
#include "util/rng.hpp"

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

namespace tlbsim::core {
namespace {

unsigned long long newCalls() {
  return g_newCalls.load(std::memory_order_relaxed);
}

TEST(DeadlineTrackerAlloc, ReservoirGrowsWithItsSamples) {
  const auto before = newCalls();
  DeadlineTracker t(/*capacity=*/1024, 1);
  EXPECT_EQ(newCalls(), before);  // nothing before the first deadline
  t.observe(milliseconds(5));
  EXPECT_GT(newCalls(), before);  // the first sample's room
  EXPECT_EQ(t.sampleCount(), 1u);
  EXPECT_EQ(t.percentile(25.0, 0_ns), milliseconds(5));
}

TEST(DeadlineTrackerAlloc, PercentileSelectsWhatASortWouldInAKeptBuffer) {
  DeadlineTracker t(/*capacity=*/512, 3);
  std::vector<SimTime> seen;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    // Few distinct values, so ranks fall inside runs of equal samples.
    const SimTime d = microseconds(100 * (1 + rng.uniformInt(40)));
    t.observe(d);
    seen.push_back(d);
    std::vector<SimTime> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 12.5, 25.0, 50.0, 99.0, 100.0}) {
      const auto idx = static_cast<std::size_t>(
          p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
      ASSERT_EQ(t.percentile(p, 0_ns), sorted[idx])
          << "p" << p << " of " << seen.size() << " samples";
    }
  }
  // With the reservoir unchanged, each further call reuses the buffer.
  const auto calls = newCalls();
  for (int tick = 0; tick < 100; ++tick) t.percentile(25.0, 0_ns);
  EXPECT_EQ(newCalls(), calls);
}

}  // namespace
}  // namespace tlbsim::core
