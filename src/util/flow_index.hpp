// Flat FlowId -> value table: open addressing with linear probing over a
// power-of-two array kept at most half full, so a lookup is one multiply
// and a short scan of adjacent slots, with no node per entry. It is the
// one table in src/ that maps a flow id to a value.
//
// erase() shifts the rest of a probe run back instead of leaving
// tombstones, and the table grows (doubling) only when a new flow is
// inserted: replacing the value of a flow already present never resizes,
// and a table whose population churns at a steady size never allocates.
// reserve() sizes it up front for an owner that knows its bound.
#pragma once

#include <bit>
#include <cstddef>
#include <vector>

#include "util/check.hpp"
#include "util/flow_key.hpp"

namespace tlbsim::util {

template <typename V>
class FlowIndex {
 public:
  /// The value stored for `flow`, or null (always for kInvalidFlow).
  const V* find(FlowId flow) const {
    if (table_.empty() || flow == kInvalidFlow) return nullptr;
    const Entry& e = table_[probe(flow)];
    return e.flow == flow ? &e.value : nullptr;
  }

  /// Insert `flow`, or replace its value when it is already present.
  /// kInvalidFlow marks an empty slot, so it is never stored.
  void assign(FlowId flow, V value) {
    TLBSIM_DCHECK(flow != kInvalidFlow, "kInvalidFlow cannot be a key");
    if (flow == kInvalidFlow) return;
    // At the load limit only a new flow grows the table.
    if (2 * (used_ + 1) > table_.size() && find(flow) == nullptr) {
      rehash(table_.empty() ? kMinSlots : 2 * table_.size());
    }
    Entry& e = table_[probe(flow)];
    if (e.flow != flow) {
      e.flow = flow;
      ++used_;
    }
    e.value = value;
  }

  /// Remove `flow`; false when it was not present.
  bool erase(FlowId flow) {
    if (table_.empty() || flow == kInvalidFlow) return false;
    std::size_t hole = probe(flow);
    if (table_[hole].flow != flow) return false;
    const std::size_t mask = table_.size() - 1;
    // Backward shift: walk the rest of the probe run and move each entry
    // whose home slot is at or before the hole (cyclically) into it. Every
    // remaining entry then stays reachable from its home without gaps.
    for (std::size_t j = (hole + 1) & mask; table_[j].flow != kInvalidFlow;
         j = (j + 1) & mask) {
      const std::size_t home = homeSlot(table_[j].flow, table_.size());
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = Entry{};
    --used_;
    return true;
  }

  /// Size the table so that `n` flows fit without growing it again.
  void reserve(std::size_t n) {
    std::size_t slots = kMinSlots;
    while (slots < 2 * n) slots <<= 1;
    if (slots > table_.size()) rehash(slots);
  }

  /// Visit every entry as fn(FlowId, const V&), in table order: an order
  /// that depends on the hash, so only for order-free work.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const Entry& e : table_) {
      if (e.flow != kInvalidFlow) fn(e.flow, e.value);
    }
  }

  std::size_t size() const { return used_; }
  /// Table size: 0 before the first insert, then a power of two at least
  /// twice size().
  std::size_t slots() const { return table_.size(); }
  /// Bytes the table holds on the heap.
  std::size_t residentBytes() const {
    return table_.capacity() * sizeof(Entry);
  }

  /// Where `flow`'s probe run starts in a table of `slots` (a power of
  /// two, at least 2): Fibonacci hashing, so strided flow ids still
  /// spread out.
  static std::size_t homeSlot(FlowId flow, std::size_t slots) {
    return static_cast<std::size_t>((flow * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - std::countr_zero(slots)));
  }

 private:
  /// An empty slot has flow == kInvalidFlow.
  struct Entry {
    FlowId flow = kInvalidFlow;
    V value{};
  };
  static constexpr std::size_t kMinSlots = 8;

  /// Index of `flow`'s slot, or of the empty slot that ends its probe run
  /// (the table always has one: it is at most half full).
  std::size_t probe(FlowId flow) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = homeSlot(flow, table_.size());
    while (table_[i].flow != flow && table_[i].flow != kInvalidFlow) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Move every entry into a fresh table of `slots` slots.
  void rehash(std::size_t slots) {
    std::vector<Entry> old(slots);
    old.swap(table_);
    for (const Entry& e : old) {
      if (e.flow != kInvalidFlow) table_[probe(e.flow)] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t used_ = 0;
};

}  // namespace tlbsim::util
