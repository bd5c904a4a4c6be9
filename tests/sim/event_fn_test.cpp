// util::InlineFunction — the small-buffer callable behind sim::EventFn.
// These tests pin the inline/heap boundary, the move/destroy protocol
// (manager calls for closures that own resources, plain buffer copies for
// trivially copyable ones), and the compile-time fitsInline() /
// relocatesByCopy() predicates that hot call sites and the alloc-counting
// test rely on.
#include "util/inline_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace tlbsim::util {
namespace {

using Fn = InlineFunction<int()>;

struct alignas(8) Small {
  std::array<unsigned char, 16> pad{};
  int operator()() const { return 16; }
};
struct AtBudget {
  std::array<unsigned char, kInlineFunctionDefaultSize> pad{};
  int operator()() const { return 48; }
};
struct OverBudget {
  std::array<unsigned char, kInlineFunctionDefaultSize + 1> pad{};
  int operator()() const { return 49; }
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  int operator()() const { return -1; }
};

TEST(InlineFunction, FitsInlineBoundaryIsExactlyTheBudget) {
  static_assert(Fn::fitsInline<Small>());
  static_assert(Fn::fitsInline<AtBudget>());
  static_assert(!Fn::fitsInline<OverBudget>());
  // Non-nothrow-movable callables must go to the heap: inline relocation
  // happens inside noexcept move operations.
  static_assert(!Fn::fitsInline<ThrowingMove>());
  // The sim's event callback uses the same default budget.
  static_assert(sim::EventFn::inlineSize() == kInlineFunctionDefaultSize);
}

TEST(InlineFunction, InvokesInlineAndHeapCallables) {
  Fn small(Small{});
  Fn at(AtBudget{});
  Fn over(OverBudget{});
  Fn throwing(ThrowingMove{});
  EXPECT_EQ(small(), 16);
  EXPECT_EQ(at(), 48);
  EXPECT_EQ(over(), 49);
  EXPECT_EQ(throwing(), -1);
}

TEST(InlineFunction, EmptyAndNullptrStates) {
  Fn empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  Fn fromNull(nullptr);
  EXPECT_FALSE(static_cast<bool>(fromNull));
  Fn filled([] { return 7; });
  EXPECT_TRUE(static_cast<bool>(filled));
  filled = nullptr;
  EXPECT_FALSE(static_cast<bool>(filled));
}

TEST(InlineFunction, MoveTransfersInlineCallable) {
  int calls = 0;
  InlineFunction<void()> a([&calls] { ++calls; });
  InlineFunction<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget) {
  auto counter = std::make_shared<int>(0);
  {
    InlineFunction<void()> a([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    a = InlineFunction<void()>([] {});
    // The first closure (and its shared_ptr copy) must be destroyed by
    // the assignment, not leaked until scope exit.
    EXPECT_EQ(counter.use_count(), 1);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunction, DestructorReleasesHeapCallable) {
  auto counter = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> p;
    std::array<unsigned char, 64> pad{};
    void operator()() const { ++*p; }
  };
  static_assert(!InlineFunction<void()>::fitsInline<Big>());
  {
    InlineFunction<void()> f(Big{counter});
    EXPECT_EQ(counter.use_count(), 2);
    f();
    EXPECT_EQ(*counter, 1);
  }
  EXPECT_EQ(counter.use_count(), 1);  // heap cell freed
}

TEST(InlineFunction, HeapMoveHandsOverTheCell) {
  auto counter = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> p;
    std::array<unsigned char, 64> pad{};
    void operator()() const { ++*p; }
  };
  InlineFunction<void()> a(Big{counter});
  InlineFunction<void()> b(std::move(a));
  // Handing the pointer over must not copy the closure.
  EXPECT_EQ(counter.use_count(), 2);
  b();
  EXPECT_EQ(*counter, 1);
}

TEST(InlineFunction, MoveOnlyClosuresWork) {
  auto owned = std::make_unique<int>(41);
  InlineFunction<int()> f(
      [p = std::move(owned)] { return *p + 1; });
  EXPECT_EQ(f(), 42);
  InlineFunction<int()> g(std::move(f));
  EXPECT_EQ(g(), 42);
}

TEST(InlineFunction, ArgumentsAndReturnValuesForward) {
  InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 40), 42);
  InlineFunction<void(int&)> bump([](int& x) { ++x; });
  int v = 0;
  bump(v);
  EXPECT_EQ(v, 1);
}

TEST(InlineFunction, RelocatesByCopyOnlyForTriviallyCopyableInline) {
  int x = 0;
  const auto ptrs = [&x, y = std::uint32_t{7}] { return x + 1; };
  static_assert(Fn::relocatesByCopy<decltype(ptrs)>());
  static_assert(Fn::relocatesByCopy<AtBudget>());
  static_assert(!Fn::relocatesByCopy<OverBudget>());  // heap cell
  const auto owning = [p = std::make_shared<int>(1)] { return *p; };
  static_assert(Fn::fitsInline<decltype(owning)>());
  static_assert(!Fn::relocatesByCopy<decltype(owning)>());
}

TEST(InlineFunction, TriviallyCopyableClosureSurvivesAChainOfMoves) {
  int hits = 0;
  const std::uint64_t tag = 0x5eed'0000'0042;
  InlineFunction<std::uint64_t()> f([&hits, tag, pad = std::uint32_t{3}] {
    hits += static_cast<int>(pad);
    return tag;
  });
  // Constructor, move-assignment and vector relocation, several times.
  std::vector<InlineFunction<std::uint64_t()>> hops;
  hops.push_back(std::move(f));
  for (int i = 0; i < 40; ++i) hops.push_back(std::move(hops.back()));
  InlineFunction<std::uint64_t()> last;
  last = std::move(hops.back());
  InlineFunction<std::uint64_t()> out(std::move(last));
  for (const auto& h : hops) EXPECT_FALSE(static_cast<bool>(h));
  EXPECT_FALSE(static_cast<bool>(last));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(out));
  EXPECT_EQ(out(), tag);
  EXPECT_EQ(hits, 3);
}

TEST(InlineFunction, OwningClosuresStillMoveAndDieExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  const std::string text(40, 'x');  // past any small-string buffer
  {
    InlineFunction<std::size_t()> a([counter, text] {
      ++*counter;
      return text.size();
    });
    EXPECT_EQ(counter.use_count(), 2);
    std::vector<InlineFunction<std::size_t()>> hops;
    hops.push_back(std::move(a));
    for (int i = 0; i < 20; ++i) hops.push_back(std::move(hops.back()));
    InlineFunction<std::size_t()> b;
    b = std::move(hops.back());
    // Moves went through the manager: still one owner besides `counter`.
    EXPECT_EQ(counter.use_count(), 2);
    EXPECT_EQ(b(), 40u);
    EXPECT_EQ(*counter, 1);
  }
  EXPECT_EQ(counter.use_count(), 1);  // destroyed once, not leaked
}

TEST(InlineFunction, SelfMoveAssignIsSafe) {
  int calls = 0;
  InlineFunction<void()> f([&calls] { ++calls; });
  auto& ref = f;
  f = std::move(ref);
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace tlbsim::util
