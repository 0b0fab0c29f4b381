#include "src/util/inline_fn.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>

namespace perfiso {
namespace {

// Counts every construction (default, copy, move) and every destruction of
// its instances, and how often any instance was called.
struct Counted {
  static int constructed;
  static int destroyed;
  static int calls;

  int* sink = nullptr;
  int add = 0;

  Counted(int* s, int a) : sink(s), add(a) { ++constructed; }
  Counted(const Counted& other) : sink(other.sink), add(other.add) { ++constructed; }
  Counted(Counted&& other) noexcept : sink(other.sink), add(other.add) { ++constructed; }
  ~Counted() { ++destroyed; }

  void operator()(int x) const {
    ++calls;
    *sink += x + add;
  }
};
int Counted::constructed = 0;
int Counted::destroyed = 0;
int Counted::calls = 0;

class InlineFnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Counted::constructed = 0;
    Counted::destroyed = 0;
    Counted::calls = 0;
  }
};

using IntFn = InlineFn<void(int)>;

TEST_F(InlineFnTest, CallsTheTargetWithArgumentsAndReturnsItsResult) {
  const InlineFn<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
  int total = 0;
  const IntFn fn = [&total](int x) { total += x; };
  fn(4);
  fn(5);
  EXPECT_EQ(total, 9);
}

TEST_F(InlineFnTest, EmptyByDefaultFromNullptrAndFromEmptyStdFunction) {
  const IntFn by_default;
  const IntFn from_null = nullptr;
  const std::function<void(int)> empty_std;
  const IntFn from_empty_std = empty_std;
  void (*null_ptr)(int) = nullptr;
  const IntFn from_null_ptr = null_ptr;
  EXPECT_FALSE(static_cast<bool>(by_default));
  EXPECT_FALSE(static_cast<bool>(from_null));
  EXPECT_FALSE(static_cast<bool>(from_empty_std));
  EXPECT_FALSE(static_cast<bool>(from_null_ptr));

  int total = 0;
  const IntFn from_std = std::function<void(int)>([&total](int x) { total += x; });
  ASSERT_TRUE(static_cast<bool>(from_std));
  from_std(7);
  EXPECT_EQ(total, 7);
}

TEST_F(InlineFnTest, MoveTransfersTheTargetAndEmptiesTheSource) {
  int total = 0;
  IntFn a = Counted(&total, 1);
  IntFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // moved-from is empty
  ASSERT_TRUE(static_cast<bool>(b));
  b(10);
  EXPECT_EQ(total, 11);

  IntFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // moved-from is empty
  c(10);
  EXPECT_EQ(total, 22);
}

TEST_F(InlineFnTest, CopyDuplicatesTheTarget) {
  int total = 0;
  IntFn a = Counted(&total, 1);
  const IntFn b = a;
  IntFn c;
  c = a;
  a(1);
  b(1);
  c(1);
  EXPECT_EQ(total, 6);
  EXPECT_EQ(Counted::calls, 3);
}

TEST_F(InlineFnTest, SelfMoveAndSelfCopyKeepTheTarget) {
  int total = 0;
  IntFn fn = Counted(&total, 0);
  IntFn& alias = fn;
  fn = std::move(alias);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn = alias;
  ASSERT_TRUE(static_cast<bool>(fn));
  fn(3);
  EXPECT_EQ(total, 3);
}

TEST_F(InlineFnTest, ReassignmentDestroysTheOldTarget) {
  int total = 0;
  IntFn fn = Counted(&total, 100);
  const int live_before = Counted::constructed - Counted::destroyed;
  EXPECT_EQ(live_before, 1);
  fn = [&total](int x) { total -= x; };
  EXPECT_EQ(Counted::constructed, Counted::destroyed);
  fn(5);
  EXPECT_EQ(total, -5);
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST_F(InlineFnTest, ConstructionsBalanceDestructions) {
  int total = 0;
  {
    IntFn a = Counted(&total, 1);
    IntFn b = a;
    IntFn c = std::move(a);
    IntFn d;
    d = b;
    d = std::move(c);
    b = nullptr;
    std::swap(b, d);
    b(1);
  }
  EXPECT_GT(Counted::constructed, 0);
  EXPECT_EQ(Counted::constructed, Counted::destroyed);
  EXPECT_EQ(total, 2);
}

TEST_F(InlineFnTest, MutableTargetKeepsItsStateAcrossCalls) {
  const InlineFn<int()> next = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(next(), 1);
  EXPECT_EQ(next(), 2);
}

TEST_F(InlineFnTest, ACaptureOfExactlyTheBudgetFitsInline) {
  struct Wide {
    char bytes[kInlineFnBytes - sizeof(int*)];
    int* sink;
    void operator()(int x) const { *sink = x + bytes[0]; }
  };
  static_assert(sizeof(Wide) == kInlineFnBytes);
  int out = 0;
  Wide wide{};
  wide.sink = &out;
  const IntFn fn = wide;
  fn(9);
  EXPECT_EQ(out, 9);
}

}  // namespace
}  // namespace perfiso
