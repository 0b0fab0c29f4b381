#include "src/util/cpu_set.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfiso {
namespace {

TEST(CpuSetTest, EmptyByDefault) {
  CpuSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.Lowest(), -1);
  EXPECT_EQ(s.Highest(), -1);
  EXPECT_EQ(s.ToString(), "(empty)");
}

TEST(CpuSetTest, SetClearTest) {
  CpuSet s;
  s.Set(5);
  EXPECT_TRUE(s.Test(5));
  EXPECT_FALSE(s.Test(4));
  s.Clear(5);
  EXPECT_FALSE(s.Test(5));
}

TEST(CpuSetTest, FirstNAndRange) {
  const CpuSet first = CpuSet::FirstN(48);
  EXPECT_EQ(first.Count(), 48);
  EXPECT_EQ(first.Lowest(), 0);
  EXPECT_EQ(first.Highest(), 47);

  const CpuSet range = CpuSet::Range(40, 48);
  EXPECT_EQ(range.Count(), 8);
  EXPECT_EQ(range.Lowest(), 40);
  EXPECT_EQ(range.Highest(), 47);
}

TEST(CpuSetTest, CrossesWordBoundary) {
  const CpuSet s = CpuSet::Range(60, 70);
  EXPECT_EQ(s.Count(), 10);
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_EQ(s.Lowest(), 60);
  EXPECT_EQ(s.Highest(), 69);
}

TEST(CpuSetTest, NextAfterSkipsGaps) {
  CpuSet s;
  s.Set(2);
  s.Set(64);
  s.Set(130);
  EXPECT_EQ(s.NextAfter(-1), 2);
  EXPECT_EQ(s.NextAfter(2), 64);
  EXPECT_EQ(s.NextAfter(64), 130);
  EXPECT_EQ(s.NextAfter(130), -1);
}

TEST(CpuSetTest, NextAfterAtWordBoundaries) {
  CpuSet s;
  for (int cpu : {0, 63, 64, 128, 200, 255}) {
    s.Set(cpu);
  }
  EXPECT_EQ(s.NextAfter(-1), 0);
  EXPECT_EQ(s.NextAfter(62), 63);
  EXPECT_EQ(s.NextAfter(63), 64);   // next word's bit 0
  EXPECT_EQ(s.NextAfter(64), 128);  // skips an empty word
  EXPECT_EQ(s.NextAfter(127), 128);
  EXPECT_EQ(s.NextAfter(200), 255);
  EXPECT_EQ(s.NextAfter(254), 255);
  EXPECT_EQ(s.NextAfter(255), -1);
  EXPECT_EQ(CpuSet().NextAfter(-1), -1);
  EXPECT_EQ(CpuSet::Single(63).NextAfter(63), -1);
  EXPECT_EQ(CpuSet::Single(127).NextAfter(126), 127);
}

TEST(CpuSetTest, ForEachVisitsEveryWordInAscendingOrder) {
  CpuSet s;
  for (int cpu : {0, 63, 64, 128, 200, 255}) {
    s.Set(cpu);
  }
  std::vector<int> seen;
  s.ForEach([&](int cpu) { seen.push_back(cpu); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 128, 200, 255}));
  seen.clear();
  CpuSet().ForEach([&](int cpu) { seen.push_back(cpu); });
  EXPECT_TRUE(seen.empty());
}

TEST(CpuSetTest, NextAfterVisitsExactlyTheSetBits) {
  const CpuSet s = CpuSet::Range(60, 70) | CpuSet::Range(120, 136) | CpuSet::Single(255);
  int visited = 0;
  int prev = -1;
  for (int cpu = s.Lowest(); cpu >= 0; cpu = s.NextAfter(cpu)) {
    EXPECT_TRUE(s.Test(cpu));
    EXPECT_GT(cpu, prev);
    prev = cpu;
    ++visited;
  }
  EXPECT_EQ(visited, s.Count());
}

TEST(CpuSetTest, EmptySeesHighWords) {
  const CpuSet s = CpuSet::Single(200);
  EXPECT_FALSE(s.Empty());
  EXPECT_EQ(s.Mask64(), 0u);
  EXPECT_TRUE((s & CpuSet::FirstN(200)).Empty());
}

TEST(CpuSetTest, OrAssign) {
  CpuSet s = CpuSet::Single(3);
  CpuSet& same = (s |= CpuSet::Range(64, 66));
  EXPECT_EQ(&same, &s);
  EXPECT_EQ(s.ToString(), "3,64-65");
  s |= CpuSet();
  EXPECT_EQ(s.Count(), 3);
  s |= s;
  EXPECT_EQ(s, CpuSet::Single(3) | CpuSet::Range(64, 66));
}

TEST(CpuSetTest, SetOperations) {
  const CpuSet a = CpuSet::FirstN(10);
  const CpuSet b = CpuSet::Range(5, 15);
  EXPECT_EQ((a & b).Count(), 5);
  EXPECT_EQ((a | b).Count(), 15);
  EXPECT_EQ(a.Minus(b), CpuSet::FirstN(5));
  EXPECT_EQ(((~a) & CpuSet::FirstN(15)), CpuSet::Range(10, 15));
}

TEST(CpuSetTest, Mask64RoundTrip) {
  const CpuSet s = CpuSet::FromMask64(0b1011);
  EXPECT_EQ(s.Count(), 3);
  EXPECT_EQ(s.Mask64(), 0b1011u);
}

TEST(CpuSetTest, ToStringRuns) {
  CpuSet s;
  s.Set(0);
  s.Set(1);
  s.Set(2);
  s.Set(8);
  s.Set(10);
  s.Set(11);
  EXPECT_EQ(s.ToString(), "0-2,8,10-11");
  EXPECT_EQ(CpuSet::Single(7).ToString(), "7");
}

TEST(CpuSetTest, OutOfRangeTestIsFalse) {
  const CpuSet s = CpuSet::FirstN(4);
  EXPECT_FALSE(s.Test(-1));
  EXPECT_FALSE(s.Test(CpuSet::kMaxCpus));
}

}  // namespace
}  // namespace perfiso
