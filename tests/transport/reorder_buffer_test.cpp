// ReorderBuffer against a reference model: the std::map of byte ranges
// TcpReceiver used to keep, driven by the same random arrivals, overlaps,
// duplicates and drains. Both must advance the cumulative ACK identically
// and cover the same bytes.
#include "transport/reorder_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace tlbsim::transport {
namespace {

/// The receiver's former reorder map (start -> end), with its insert and
/// drain exactly as they were.
class MapModel {
 public:
  void insert(std::uint64_t start, std::uint64_t end) {
    auto [it, inserted] = segments_.try_emplace(start, end);
    if (!inserted) {
      it->second = std::max(it->second, end);
      return;
    }
    if (it != segments_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= it->first) {
        prev->second = std::max(prev->second, it->second);
        segments_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    while (next != segments_.end() && next->first <= it->second) {
      it->second = std::max(it->second, next->second);
      next = segments_.erase(next);
    }
  }

  std::uint64_t drain(std::uint64_t cumAck) {
    auto it = segments_.begin();
    while (it != segments_.end() && it->first <= cumAck) {
      cumAck = std::max(cumAck, it->second);
      it = segments_.erase(it);
    }
    return cumAck;
  }

  /// The bytes held, as sorted, disjoint, non-touching ranges. (An
  /// extend-in-place insert may leave the map's own ranges overlapping.)
  std::vector<ReorderBuffer::Range> covered() const {
    std::vector<ReorderBuffer::Range> out;
    for (const auto& [start, end] : segments_) {
      if (!out.empty() && start <= out.back().end) {
        out.back().end = std::max(out.back().end, end);
      } else {
        out.push_back({start, end});
      }
    }
    return out;
  }

 private:
  std::map<std::uint64_t, std::uint64_t> segments_;
};

bool sameRanges(const std::vector<ReorderBuffer::Range>& a,
                const std::vector<ReorderBuffer::Range>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.start == y.start && x.end == y.end;
                    });
}

TEST(ReorderBuffer, MergesOverlappingAndTouchingRanges) {
  ReorderBuffer buf;
  buf.insert(30, 40);
  buf.insert(10, 20);
  buf.insert(50, 60);
  ASSERT_EQ(buf.ranges().size(), 3u);
  buf.insert(20, 30);  // touches both neighbours
  ASSERT_EQ(buf.ranges().size(), 2u);
  EXPECT_EQ(buf.ranges()[0].start, 10u);
  EXPECT_EQ(buf.ranges()[0].end, 40u);
  buf.insert(5, 70);  // swallows everything
  ASSERT_EQ(buf.ranges().size(), 1u);
  EXPECT_EQ(buf.ranges()[0].start, 5u);
  EXPECT_EQ(buf.ranges()[0].end, 70u);
}

TEST(ReorderBuffer, DrainAdvancesOverContiguousRangesOnly) {
  ReorderBuffer buf;
  buf.insert(10, 20);
  buf.insert(30, 40);
  EXPECT_EQ(buf.drain(5), 5u);  // hole at [5, 10): nothing drains
  EXPECT_EQ(buf.ranges().size(), 2u);
  EXPECT_EQ(buf.drain(10), 20u);
  ASSERT_EQ(buf.ranges().size(), 1u);
  EXPECT_EQ(buf.drain(35), 40u);  // overlaps the last range
  EXPECT_TRUE(buf.empty());
}

TEST(ReorderBuffer, ClearAndHandOverKeepTheStorage) {
  ReorderBuffer buf;
  for (std::uint64_t i = 1; i <= 8; ++i) buf.insert(10 * i, 10 * i + 5);
  const std::size_t capacity = buf.capacity();
  ASSERT_GE(capacity, 8u);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), capacity);
  ReorderBuffer next(std::move(buf));
  EXPECT_EQ(next.capacity(), capacity);
  EXPECT_EQ(ReorderBuffer{}.capacity(), 0u);  // nothing reserved up front
}

TEST(ReorderBuffer, MatchesTheMapModelUnderRandomArrivals) {
  Rng rng(0x5eed);
  constexpr std::uint64_t kMss = 1460;
  for (int trial = 0; trial < 200; ++trial) {
    ReorderBuffer buf;
    MapModel model;
    std::uint64_t cumAck = 0;
    const std::uint64_t flowEnd = kMss * (20 + rng.uniformInt(200));
    std::vector<std::uint64_t> seen;  // starts to replay as duplicates
    for (int step = 0; step < 400 && cumAck < flowEnd; ++step) {
      std::uint64_t start = 0;
      std::uint64_t len = kMss;
      const auto kind = rng.uniformInt(10);
      if (kind < 5) {
        // A segment inside the window ahead: reordered or after a loss.
        start = cumAck + kMss * rng.uniformInt(44);
      } else if (kind < 7 && !seen.empty()) {
        start = seen[static_cast<std::size_t>(rng.uniformInt(seen.size()))];
      } else if (kind < 9) {
        // Unaligned, odd-sized: overlaps and partial duplicates.
        start = cumAck + rng.uniformInt(40 * kMss);
        len = 1 + rng.uniformInt(3 * kMss);
      } else {
        start = cumAck;  // the in-order segment
      }
      const std::uint64_t end = std::min(start + len, flowEnd);
      if (start >= end) continue;
      seen.push_back(start);
      if (start > cumAck) {
        buf.insert(start, end);
        model.insert(start, end);
      } else if (end > cumAck) {
        const std::uint64_t a = buf.drain(end);
        const std::uint64_t b = model.drain(end);
        ASSERT_EQ(a, b) << "trial " << trial << " step " << step;
        cumAck = a;
      }
      ASSERT_TRUE(sameRanges(buf.ranges(), model.covered()))
          << "trial " << trial << " step " << step;
      for (std::size_t i = 1; i < buf.ranges().size(); ++i) {
        ASSERT_LT(buf.ranges()[i - 1].end, buf.ranges()[i].start);
      }
    }
  }
}

}  // namespace
}  // namespace tlbsim::transport
