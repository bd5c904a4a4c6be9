#include "reference.hpp"

#include <sys/mman.h>

#include <chrono>
#include <functional>
#include <memory_resource>
#include <new>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kFlows = 20000;
constexpr std::uint32_t kStateKeys = 200003;
constexpr int kEvents = 1000000;
constexpr std::size_t kArenaBytes = std::size_t{8} << 20;

/// splitmix64: a fixed sequence, independent of the standard library.
std::uint64_t next(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The kernel's own memory: a private mapping, unmapped when the kernel
/// ends, so the process heap and its footprint are as if it never ran.
class Arena {
 public:
  Arena()
      : base_(mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)) {
    if (base_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~Arena() { munmap(base_, kArenaBytes); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* base() const { return base_; }

 private:
  void* base_;
};

ReferenceResult kernel(std::pmr::memory_resource* mem) {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::pmr::vector<Event> storage(mem);
  storage.reserve(kFlows);
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  std::pmr::unordered_map<std::uint32_t, std::uint64_t> state(mem);
  state.reserve(kFlows);
  const auto key = [](std::uint32_t id) {
    return (id * 2654435761U) % kStateKeys;
  };
  std::uint64_t rng = 42;
  for (std::uint32_t id = 0; id < kFlows; ++id) {
    heap.push({next(rng) % 1000000, id});
    state[key(id)] = id;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < kEvents; ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    std::uint64_t& s = state[key(id)];
    s += t;
    if (((s ^ t) & 1U) != 0) {
      acc += s;
    } else {
      acc ^= t;
    }
    heap.push({t + next(rng) % 5000, id});
    if (i % 64 == 0) {
      const std::pmr::vector<char> buf(
          1500 + static_cast<std::size_t>(i & 1023), mem);
      acc += buf.size();
    }
  }
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return {sec, (acc ^ (acc >> 48)) & 0xffffffffffffULL};
}

}  // namespace

ReferenceResult runReference() {
  const Arena arena;
  std::pmr::monotonic_buffer_resource upstream(
      arena.base(), kArenaBytes, std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool({0, 4096}, &upstream);
  return kernel(&pool);
}

}  // namespace perfbench
