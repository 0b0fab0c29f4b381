#include "src/util/rng.h"

#include <gtest/gtest.h>

#include "src/util/stats.h"

namespace perfiso {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(13);
  MeanVar mv;
  for (int i = 0; i < 200000; ++i) {
    mv.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(mv.Mean(), 4.0, 0.05);
}

TEST(RngTest, NormalMeanAndStdDevConverge) {
  Rng rng(17);
  MeanVar mv;
  for (int i = 0; i < 200000; ++i) {
    mv.Add(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(mv.Mean(), 10.0, 0.05);
  EXPECT_NEAR(mv.StdDev(), 2.0, 0.05);
}

TEST(RngTest, LogNormalMedianIsExpMu) {
  Rng rng(19);
  LatencyRecorder rec;
  for (int i = 0; i < 100000; ++i) {
    rec.Add(rng.LogNormal(1.0, 0.5));
  }
  EXPECT_NEAR(rec.P50(), std::exp(1.0), 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace perfiso
