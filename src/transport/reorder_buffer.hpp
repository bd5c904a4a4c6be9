// The byte ranges a TCP receiver holds beyond its cumulative ACK: a sorted
// vector of disjoint, non-touching [start, end) ranges. A reordered or
// post-loss arrival merges into it; an in-order arrival drains the ranges
// that became contiguous.
//
// Nothing is allocated at construction; storage comes on demand, and
// clear() keeps it, so a receiver built in a reused endpoint's storage
// takes its predecessor's buffer over and allocates nothing. The ranges
// are bounded by the receive window: all lie within one window past the
// cumulative ACK, and each is followed by a hole the sender has yet to
// fill, so MSS-aligned segments make at most one range per two segments
// of window (TcpReceiver reserves that much at the first reordering).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tlbsim::transport {

class ReorderBuffer {
 public:
  struct Range {
    std::uint64_t start = 0;
    std::uint64_t end = 0;  ///< exclusive
  };

  /// Buffer [start, end), merging it with every range it overlaps or
  /// touches.
  void insert(std::uint64_t start, std::uint64_t end) {
    // The first range ending at or after `start` is the first candidate
    // for a merge; ranges are disjoint, so their ends are sorted too.
    auto it = std::lower_bound(
        ranges_.begin(), ranges_.end(), start,
        [](const Range& r, std::uint64_t key) { return r.end < key; });
    if (it == ranges_.end() || it->start > end) {
      ranges_.insert(it, Range{start, end});
      return;
    }
    it->start = std::min(it->start, start);
    it->end = std::max(it->end, end);
    auto next = it + 1;
    while (next != ranges_.end() && next->start <= it->end) {
      it->end = std::max(it->end, next->end);
      ++next;
    }
    ranges_.erase(it + 1, next);
  }

  /// Advance a cumulative ACK of `cumAck` over the buffered ranges that
  /// are now contiguous with it, and drop them. Returns the new ACK.
  std::uint64_t drain(std::uint64_t cumAck) {
    auto it = ranges_.begin();
    for (; it != ranges_.end() && it->start <= cumAck; ++it) {
      cumAck = std::max(cumAck, it->end);
    }
    ranges_.erase(ranges_.begin(), it);
    return cumAck;
  }

  /// Drop every range and keep the storage.
  void clear() { ranges_.clear(); }
  void reserve(std::size_t ranges) { ranges_.reserve(ranges); }

  bool empty() const { return ranges_.empty(); }
  const std::vector<Range>& ranges() const { return ranges_; }
  std::size_t capacity() const { return ranges_.capacity(); }

 private:
  std::vector<Range> ranges_;
};

}  // namespace tlbsim::transport
