// FlowStateTable: flow lookup, LRU purge/eviction accounting, and the
// boundedness guarantees every selector now depends on.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "lb/flow_state_table.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {
namespace {

struct Payload {
  int value = 0;
};

using Table = FlowStateTable<Payload>;

FlowStateConfig smallConfig(std::size_t maxFlows = 8,
                            SimTime idle = microseconds(100)) {
  FlowStateConfig cfg;
  cfg.maxFlows = maxFlows;
  cfg.initialCapacity = 2;
  cfg.idleTimeout = idle;
  return cfg;
}

TEST(FlowStateTable, TouchInsertsThenFinds) {
  Table t(smallConfig());
  auto r = t.touch(7, 10_ns);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(r.prevSeen, 10_ns);
  r.state.value = 42;
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(t.find(7)->value, 42);
  EXPECT_EQ(t.find(8), nullptr);
  EXPECT_TRUE(t.contains(7));
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowStateTable, TouchReportsPreviousLastSeen) {
  Table t(smallConfig());
  t.touch(7, 10_ns);
  auto r = t.touch(7, 250_ns);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.prevSeen, 10_ns);  // the flowlet-gap input
  ASSERT_NE(t.lastSeenOf(7), nullptr);
  EXPECT_EQ(*t.lastSeenOf(7), 250_ns);
  EXPECT_EQ(t.lastSeenOf(99), nullptr);
}

TEST(FlowStateTable, StateSurvivesGrowth) {
  Table t(smallConfig(64));
  for (FlowId id = 0; id < 64; ++id) {
    t.touch(id, 0_ns).state.value = 1000 + static_cast<int>(id);
  }
  EXPECT_EQ(t.size(), 64u);
  for (FlowId id = 0; id < 64; ++id) {
    ASSERT_NE(t.find(id), nullptr) << id;
    EXPECT_EQ(t.find(id)->value, 1000 + static_cast<int>(id));
  }
}

TEST(FlowStateTable, EraseRemovesAndReports) {
  Table t(smallConfig());
  t.touch(1, 0_ns).state.value = 5;
  int seen = -1;
  EXPECT_TRUE(t.erase(1, [&seen](FlowId, Payload& p) { seen = p.value; }));
  EXPECT_EQ(seen, 5);
  EXPECT_FALSE(t.contains(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowStateTable, PurgeIdleDropsOldestFirst) {
  Table t(smallConfig(8, microseconds(100)));
  t.touch(1, 0_ns);
  t.touch(2, microseconds(50));
  t.touch(3, microseconds(90));
  std::vector<FlowId> purged;
  t.purgeIdle(microseconds(160),
              [&purged](FlowId id, Payload&) { purged.push_back(id); });
  EXPECT_EQ(purged, (std::vector<FlowId>{1, 2}));  // LRU order
  EXPECT_TRUE(t.contains(3));
  EXPECT_EQ(t.stats().purgedIdle, 2u);
}

TEST(FlowStateTable, TouchRefreshesRecencySoPurgeSkips) {
  Table t(smallConfig(8, microseconds(100)));
  t.touch(1, 0_ns);
  t.touch(2, 0_ns);
  t.touch(1, microseconds(150));  // refresh
  t.purgeIdle(microseconds(200));
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.contains(2));
}

TEST(FlowStateTable, CapacityEvictsLeastRecentlySeen) {
  Table t(smallConfig(4));
  t.touch(1, 10_ns);
  t.touch(2, 20_ns);
  t.touch(3, 30_ns);
  t.touch(4, 40_ns);
  t.touch(1, 50_ns);  // 2 is now the LRU entry
  FlowId evicted = kInvalidFlow;
  auto r = t.touch(5, 60_ns, [&evicted](FlowId id, Payload&) { evicted = id; });
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(evicted, 2u);
  EXPECT_FALSE(t.contains(2));
  EXPECT_TRUE(t.contains(1));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.stats().evictedCapacity, 1u);
}

TEST(FlowStateTable, ForEachWalksLruOrder) {
  Table t(smallConfig());
  t.touch(1, 10_ns);
  t.touch(2, 20_ns);
  t.touch(3, 30_ns);
  t.touch(1, 40_ns);
  std::vector<FlowId> order;
  t.forEach(
      [&order](FlowId id, const Payload&, SimTime) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<FlowId>{2, 3, 1}));
}

TEST(FlowStateTable, StatsTrackInsertionsAndPeak) {
  Table t(smallConfig(8));
  for (FlowId id = 0; id < 6; ++id) t.touch(id, 0_ns);
  t.erase(0);
  t.erase(1);
  t.touch(9, 0_ns);
  EXPECT_EQ(t.stats().inserted, 7u);
  EXPECT_EQ(t.stats().peakFlows, 6u);
  EXPECT_EQ(t.size(), 5u);
}

// Exhaustive cross-check of the table (insert, backward-shift deletion in
// its index, LRU purge) against a shadow std::unordered_map + timestamps.
TEST(FlowStateTable, FuzzAgainstShadowMap) {
  Table t(smallConfig(256, microseconds(50)));
  struct Shadow {
    int value;
    SimTime lastSeen;
  };
  std::unordered_map<FlowId, Shadow> shadow;
  Rng rng(0xF00D);
  SimTime now;
  for (int step = 0; step < 20000; ++step) {
    now += nanoseconds(static_cast<double>(rng.uniformInt(40)));
    // Key space of 400 over capacity 256 forces capacity evictions too;
    // mirror those in the shadow via the eviction callback.
    const FlowId id = rng.uniformInt(std::uint64_t{400});
    switch (rng.uniformInt(std::uint64_t{4})) {
      case 0:
      case 1: {
        auto r = t.touch(id, now, [&shadow](FlowId victim, Payload&) {
          shadow.erase(victim);
        });
        EXPECT_EQ(r.inserted, shadow.find(id) == shadow.end());
        if (r.inserted) {
          r.state.value = step;
          shadow[id] = Shadow{step, now};
        } else {
          EXPECT_EQ(r.prevSeen, shadow[id].lastSeen);
          EXPECT_EQ(r.state.value, shadow[id].value);
          shadow[id].lastSeen = now;
        }
        break;
      }
      case 2: {
        const bool had = shadow.erase(id) > 0;
        EXPECT_EQ(t.erase(id), had);
        break;
      }
      case 3: {
        t.purgeIdle(now);
        for (auto it = shadow.begin(); it != shadow.end();) {
          if (now - it->second.lastSeen > microseconds(50)) {
            it = shadow.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
    }
    if (step % 512 == 0) {
      ASSERT_EQ(t.size(), shadow.size()) << "step " << step;
      for (const auto& [key, val] : shadow) {
        ASSERT_NE(t.find(key), nullptr) << "step " << step << " key " << key;
        ASSERT_EQ(t.find(key)->value, val.value);
      }
    }
  }
  ASSERT_EQ(t.size(), shadow.size());
  for (const auto& [key, val] : shadow) {
    ASSERT_NE(t.find(key), nullptr);
    EXPECT_EQ(t.find(key)->value, val.value);
  }
}

// The default pool starts at 16 slots and doubles only when the live set
// outgrows it. Each growth reserves the index for the new pool, so the
// table's resident bytes change at a growth and at no insert in between.
TEST(FlowStateTable, DefaultPoolStartsAt16AndDoublesWithTheLiveSet) {
  Table t;
  EXPECT_EQ(t.config().initialCapacity, 16u);
  EXPECT_EQ(t.capacity(), 0u);  // nothing allocated before the first flow
  EXPECT_EQ(t.residentBytes(), 0u);
  std::size_t bytesSinceGrowth = 0;
  std::size_t growths = 0;
  for (FlowId id = 1; id <= 1000; ++id) {
    const std::size_t before = t.capacity();
    t.touch(id, 0_ns);
    std::size_t expected = 16;
    while (expected < t.size()) expected *= 2;
    ASSERT_EQ(t.capacity(), expected) << "after " << id << " flows";
    if (t.capacity() != before) {
      ++growths;
      EXPECT_GT(t.residentBytes(), bytesSinceGrowth) << "after " << id;
      bytesSinceGrowth = t.residentBytes();
    } else {
      ASSERT_EQ(t.residentBytes(), bytesSinceGrowth) << "after " << id;
    }
  }
  EXPECT_EQ(t.capacity(), 1024u);
  EXPECT_EQ(growths, 7u);  // 16, 32, 64, 128, 256, 512, 1024
}

// The tentpole boundedness claim: a million-flow churn cannot grow the
// table past maxFlows slots, resident bytes stay flat once the pool hits
// its high-water mark, and every removal is accounted (nothing silent).
TEST(FlowStateTable, ChurnSoakStaysBounded) {
  FlowStateConfig cfg;
  cfg.maxFlows = 4096;
  cfg.initialCapacity = 64;
  cfg.idleTimeout = microseconds(200);
  Table t(cfg);
  Rng rng(0x50AB);
  SimTime now;
  std::uint64_t evictions = 0;
  std::size_t highWaterBytes = 0;
  for (int step = 0; step < 1000000; ++step) {
    now += 5_ns;
    const FlowId id = static_cast<FlowId>(step / 4) +
                      rng.uniformInt(std::uint64_t{512});
    t.touch(id, now, [&evictions](FlowId, Payload&) { ++evictions; });
    if (step % 4096 == 0) t.purgeIdle(now);
    ASSERT_LE(t.size(), cfg.maxFlows);
    if (t.capacity() == cfg.maxFlows) {
      if (highWaterBytes == 0) highWaterBytes = t.residentBytes();
      ASSERT_EQ(t.residentBytes(), highWaterBytes) << "step " << step;
    }
  }
  EXPECT_EQ(t.capacity(), cfg.maxFlows);
  EXPECT_GT(highWaterBytes, 0u);
  // Conservation: everything ever inserted is either still resident or
  // left through a counted exit.
  const auto& st = t.stats();
  EXPECT_EQ(st.inserted, t.size() + st.purgedIdle + st.evictedCapacity);
  EXPECT_EQ(st.evictedCapacity, evictions);
  EXPECT_EQ(st.peakFlows, cfg.maxFlows);
}

}  // namespace
}  // namespace tlbsim::lb
