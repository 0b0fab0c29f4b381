#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "src/util/rng.h"

namespace perfiso {
namespace {

TEST(LatencyRecorderTest, EmptyReturnsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Count(), 0u);
  EXPECT_EQ(rec.P99(), 0);
  EXPECT_EQ(rec.Mean(), 0);
}

TEST(LatencyRecorderTest, ExactPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Add(i);
  }
  EXPECT_EQ(rec.P50(), 50);
  EXPECT_EQ(rec.P95(), 95);
  EXPECT_EQ(rec.P99(), 99);
  EXPECT_EQ(rec.Percentile(100), 100);
  EXPECT_EQ(rec.Percentile(0), 1);
  EXPECT_EQ(rec.Min(), 1);
  EXPECT_EQ(rec.Max(), 100);
  EXPECT_NEAR(rec.Mean(), 50.5, 1e-9);
}

TEST(LatencyRecorderTest, UnsortedInput) {
  LatencyRecorder rec;
  rec.Add(9);
  rec.Add(1);
  rec.Add(5);
  EXPECT_EQ(rec.P50(), 5);
  EXPECT_EQ(rec.Max(), 9);
}

TEST(LatencyRecorderTest, InterleavedAddAndQuery) {
  LatencyRecorder rec;
  rec.Add(10);
  EXPECT_EQ(rec.P99(), 10);
  rec.Add(20);
  EXPECT_EQ(rec.P99(), 20);  // cache must invalidate on Add
  rec.Clear();
  EXPECT_EQ(rec.Count(), 0u);
}

TEST(LatencyRecorderTest, MergeAppendsInOrderAndPreservesDigestSemantics) {
  LatencyRecorder a;
  a.Add(1);
  a.Add(2);
  LatencyRecorder b;
  b.Add(3);
  b.Add(4);

  LatencyRecorder combined;  // one recorder that saw A's samples then B's
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    combined.Add(x);
  }

  a.Merge(b);
  EXPECT_EQ(a.Count(), 4u);
  EXPECT_EQ(a.samples(), combined.samples());
  EXPECT_EQ(a.Digest(), combined.Digest());
  EXPECT_NEAR(a.Mean(), 2.5, 1e-12);
  EXPECT_EQ(a.Max(), 4);
  // The source is untouched.
  EXPECT_EQ(b.Count(), 2u);
}

TEST(LatencyRecorderTest, MergeEmptyIsIdentity) {
  LatencyRecorder a;
  a.Add(7);
  const uint64_t digest = a.Digest();
  LatencyRecorder empty;
  a.Merge(empty);
  EXPECT_EQ(a.Digest(), digest);
  empty.Merge(a);
  EXPECT_EQ(empty.Digest(), digest);
}

TEST(LatencyRecorderTest, MergeInvalidatesPercentileCache) {
  LatencyRecorder a;
  a.Add(10);
  EXPECT_EQ(a.P99(), 10);  // forces the sorted cache
  LatencyRecorder b;
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.P99(), 20);
}

TEST(MovingAverageTest, WindowEviction) {
  MovingAverage ma(3);
  ma.Add(3);
  EXPECT_EQ(ma.Value(), 3);
  ma.Add(6);
  ma.Add(9);
  EXPECT_EQ(ma.Value(), 6);
  ma.Add(12);  // evicts 3
  EXPECT_EQ(ma.Value(), 9);
  EXPECT_TRUE(ma.Full());
}

TEST(MeanVarTest, KnownValues) {
  MeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    mv.Add(x);
  }
  EXPECT_NEAR(mv.Mean(), 5.0, 1e-9);
  EXPECT_NEAR(mv.Variance(), 32.0 / 7.0, 1e-9);  // sample variance
}


uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Feeds a ZeroRunRecorder and a LatencyRecorder the same seeded stream, in
// which each sample is 0 with probability `zero_fraction` and otherwise a
// positive delay: half whole microseconds (many ties), half fractional.
void ExpectSameAnswers(double zero_fraction, int samples, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "zero fraction " << zero_fraction << ", " << samples
                                    << " samples");
  Rng rng(seed);
  ZeroRunRecorder zero_run;
  LatencyRecorder plain;
  for (int i = 0; i < samples; ++i) {
    double sample = 0;
    if (!rng.Bernoulli(zero_fraction)) {
      sample = rng.Exponential(300);
      if (i % 2 == 0) {
        sample = std::ceil(sample);
      }
    }
    zero_run.Add(sample);
    plain.Add(sample);
  }
  EXPECT_EQ(zero_run.Count(), plain.Count());
  EXPECT_EQ(Bits(zero_run.Min()), Bits(plain.Min()));
  EXPECT_EQ(Bits(zero_run.Max()), Bits(plain.Max()));
  EXPECT_EQ(Bits(zero_run.Mean()), Bits(plain.Mean()));
  for (double p : {0.0, 0.1, 50.0, 81.0, 99.0, 100.0}) {
    EXPECT_EQ(Bits(zero_run.Percentile(p)), Bits(plain.Percentile(p))) << "p" << p;
  }
  EXPECT_EQ(Bits(zero_run.P50()), Bits(plain.P50()));
  EXPECT_EQ(Bits(zero_run.P99()), Bits(plain.P99()));
}

TEST(ZeroRunRecorderTest, AnswersExactlyAsALatencyRecorderOfTheSameStream) {
  ExpectSameAnswers(0.0, 0, 1);
  ExpectSameAnswers(0.0, 5000, 2);
  ExpectSameAnswers(0.5, 5000, 3);
  ExpectSameAnswers(0.81, 5000, 4);
  ExpectSameAnswers(1.0, 5000, 5);
  ExpectSameAnswers(0.81, 7, 6);
  ExpectSameAnswers(0.5, 1, 7);
}

TEST(ZeroRunRecorderTest, StoresOnlyTheNonzeroSamples) {
  ZeroRunRecorder rec;
  for (double sample : {0.0, 3.0, 0.0, 0.0, 1.5}) {
    rec.Add(sample);
  }
  EXPECT_EQ(rec.Count(), 5u);
  EXPECT_EQ(rec.zeros(), 3u);
  EXPECT_EQ(rec.nonzero().samples(), (std::vector<double>{3.0, 1.5}));
}

TEST(ZeroRunRecorderTest, DigestCoversZeroCountAndNonzeroOrder) {
  const auto digest = [](std::initializer_list<double> stream) {
    ZeroRunRecorder rec;
    for (double sample : stream) {
      rec.Add(sample);
    }
    return rec.Digest();
  };
  EXPECT_EQ(digest({0, 1, 2}), digest({0, 1, 2}));
  EXPECT_NE(digest({0, 1, 2}), digest({0, 0, 1, 2}));  // zero count
  EXPECT_NE(digest({0, 1, 2}), digest({0, 2, 1}));     // nonzero order
  EXPECT_NE(digest({}), digest({0}));
}

}  // namespace
}  // namespace perfiso
