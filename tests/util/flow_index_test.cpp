#include "util/flow_index.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/check.hpp"

namespace tlbsim::util {
namespace {

void ignoreFailure(const char*, int, const char*, const char*) {}

/// `n` flow ids whose probe runs all start at `home` in a table of
/// `slots`.
std::vector<FlowId> collidingFlows(std::size_t home, std::size_t slots,
                                   std::size_t n) {
  std::vector<FlowId> out;
  for (FlowId f = 0; out.size() < n; ++f) {
    if (FlowIndex<int>::homeSlot(f, slots) == home) out.push_back(f);
  }
  return out;
}

TEST(FlowIndex, InvalidFlowIsNeverFoundNorStored) {
  FlowIndex<int> index;
  EXPECT_EQ(index.find(kInvalidFlow), nullptr);
  index.assign(1, 10);
  // An empty slot's id is kInvalidFlow: it must not look like an entry.
  EXPECT_EQ(index.find(kInvalidFlow), nullptr);

  // Storing it is a bug (a debug check fires); it still changes nothing.
  const check::FailureHandler old = check::setFailureHandler(ignoreFailure);
  const long failuresBefore = check::failureCount();
  index.assign(kInvalidFlow, 7);
  const long failures = check::failureCount() - failuresBefore;
  check::setFailureHandler(old);
#ifdef NDEBUG
  EXPECT_EQ(failures, 0);
#else
  EXPECT_EQ(failures, 1);
#endif
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.find(kInvalidFlow), nullptr);
  EXPECT_FALSE(index.erase(kInvalidFlow));
  int visited = 0;
  index.forEach([&visited](FlowId flow, int value) {
    EXPECT_EQ(flow, 1u);
    EXPECT_EQ(value, 10);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

TEST(FlowIndex, ForEachVisitsEachLiveEntryOnce) {
  FlowIndex<FlowId> index;
  for (FlowId f = 0; f < 300; ++f) index.assign(f * 7, f);
  for (FlowId f = 0; f < 300; f += 3) ASSERT_TRUE(index.erase(f * 7));
  index.assign(14, 99);  // a replaced value is visited once, as replaced

  std::map<FlowId, FlowId> seen;
  index.forEach([&seen](FlowId flow, FlowId value) {
    EXPECT_TRUE(seen.emplace(flow, value).second) << "visited twice: " << flow;
  });
  ASSERT_EQ(seen.size(), index.size());
  EXPECT_EQ(seen.size(), 200u);
  for (FlowId f = 0; f < 300; ++f) {
    const auto it = seen.find(f * 7);
    if (f % 3 == 0) {
      EXPECT_EQ(it, seen.end()) << "erased flow visited: " << f * 7;
    } else {
      ASSERT_NE(it, seen.end()) << f * 7;
      EXPECT_EQ(it->second, f == 2 ? 99u : f);
    }
  }
}

TEST(FlowIndex, ReserveMakesRoomForThatManyFlows) {
  for (const std::size_t n : {1u, 5u, 64u, 1000u, 1024u}) {
    FlowIndex<int> index;
    index.reserve(n);
    const std::size_t slots = index.slots();
    const std::size_t bytes = index.residentBytes();
    EXPECT_GE(slots, 2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      index.assign(static_cast<FlowId>(i * 13 + 5), static_cast<int>(i));
    }
    EXPECT_EQ(index.slots(), slots) << n << " flows after reserve(" << n
                                    << ") grew the table";
    EXPECT_EQ(index.residentBytes(), bytes);
    EXPECT_EQ(index.size(), n);
    index.reserve(n / 2);  // never shrinks
    EXPECT_EQ(index.slots(), slots);
  }
}

TEST(FlowIndex, EraseInTheMiddleOfAProbeRunKeepsCollidersReachable) {
  FlowIndex<int> index;
  index.reserve(16);  // 32 slots, so the run below cannot trigger a grow
  const std::size_t slots = index.slots();
  const std::vector<FlowId> run = collidingFlows(slots - 2, slots, 6);
  // A run that wraps past the end of the table, plus a flow homed inside
  // it that the shift must not strand.
  const FlowId neighbour = collidingFlows(1, slots, 1).front();
  for (std::size_t i = 0; i < run.size(); ++i) {
    index.assign(run[i], static_cast<int>(i));
  }
  index.assign(neighbour, 100);
  ASSERT_EQ(index.slots(), slots);

  ASSERT_TRUE(index.erase(run[2]));
  EXPECT_EQ(index.find(run[2]), nullptr);
  ASSERT_TRUE(index.erase(run[0]));
  EXPECT_FALSE(index.erase(run[0]));
  for (std::size_t i = 1; i < run.size(); ++i) {
    if (i == 2) continue;
    const int* v = index.find(run[i]);
    ASSERT_NE(v, nullptr) << "collider " << i << " lost";
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  ASSERT_NE(index.find(neighbour), nullptr);
  EXPECT_EQ(*index.find(neighbour), 100);
  EXPECT_EQ(index.size(), run.size() - 1);
}

}  // namespace
}  // namespace tlbsim::util
