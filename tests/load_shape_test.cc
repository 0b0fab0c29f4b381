// Statistical coverage for the load-shape engine: the thinned arrival
// process must actually realize the target intensity. Constant shapes are
// checked to be Poisson at the requested rate (chi-square over per-second
// counts + inter-arrival CV), shaped streams are checked bucket-by-bucket
// against the analytic intensity, and zero-rate windows must be exactly
// silent. All tests run fixed seeds, so thresholds can be tight without
// flaking.
#include "src/workload/load_shape.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

// Runs an open-loop client over `duration` and returns the arrival times.
std::vector<SimTime> CollectArrivals(const LoadShapeSpec& shape, SimDuration duration,
                                     uint64_t seed) {
  Simulator sim;
  Rng trace_rng(1);
  auto trace = GenerateTrace(TraceSpec{}, 100, &trace_rng);
  std::vector<SimTime> arrivals;
  OpenLoopClient client(&sim, std::move(trace), shape, Rng(seed),
                        [&arrivals](const QueryWork&, SimTime now) {
                          arrivals.push_back(now);
                        });
  client.Run(0, duration);
  sim.RunUntilEmpty();
  return arrivals;
}

std::vector<int> Buckets(const std::vector<SimTime>& arrivals, SimDuration bucket,
                         int num_buckets) {
  std::vector<int> counts(static_cast<size_t>(num_buckets), 0);
  for (SimTime t : arrivals) {
    const size_t i = std::min(counts.size() - 1, static_cast<size_t>(t / bucket));
    ++counts[i];
  }
  return counts;
}

TEST(LoadShapeStatsTest, ConstantShapeArrivalsArePoissonAtRequestedRate) {
  const double kRate = 2000;
  const int kBuckets = 20;
  const auto arrivals = CollectArrivals(ConstantLoad(kRate), kBuckets * kSecond, 31);

  // Total count within 4 sigma of rate * T (Poisson sd = sqrt(mean)).
  const double expected = kRate * kBuckets;
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected, 4 * std::sqrt(expected));

  // Chi-square over per-second counts: for Poisson buckets, sum (O-E)^2 / E
  // ~ chi2 with kBuckets - 1 dof (mean 19, 99.9th percentile ~ 43.8).
  const auto counts = Buckets(arrivals, kSecond, kBuckets);
  double chi2 = 0;
  for (int count : counts) {
    chi2 += (count - kRate) * (count - kRate) / kRate;
  }
  EXPECT_LT(chi2, 50.0) << "per-second counts are not Poisson-dispersed";
  EXPECT_GT(chi2, 4.0) << "suspiciously sub-Poisson dispersion";

  // Inter-arrival CV ~ 1 for an exponential gap distribution.
  MeanVar gaps;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps.Add(static_cast<double>(arrivals[i] - arrivals[i - 1]));
  }
  EXPECT_NEAR(gaps.StdDev() / gaps.Mean(), 1.0, 0.05);
  // And the mean gap matches the rate.
  EXPECT_NEAR(gaps.Mean(), static_cast<double>(kSecond) / kRate,
              0.05 * static_cast<double>(kSecond) / kRate);
}

TEST(LoadShapeStatsTest, DiurnalThinnedArrivalsMatchIntensityPerBucket) {
  const int kBuckets = 20;
  LoadShapeSpec shape = DiurnalLoad(/*peak_qps=*/3000, /*period_sec=*/20,
                                    /*trough_fraction=*/0.2);
  const auto arrivals = CollectArrivals(shape, kBuckets * kSecond, 47);

  // Each 1-second bucket's count must match the analytic intensity at its
  // midpoint within 5 sigma (the intensity varies slowly across a bucket).
  const auto counts = Buckets(arrivals, kSecond, kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    const double expected = shape.RateAt(i * kSecond + kSecond / 2);
    EXPECT_NEAR(counts[static_cast<size_t>(i)], expected, 5 * std::sqrt(expected) + 3)
        << "bucket " << i;
  }

  // Time-average of the raised cosine: peak * (1 + f) / 2.
  const double mean_rate = 3000 * (1 + 0.2) / 2;
  EXPECT_NEAR(static_cast<double>(arrivals.size()), mean_rate * kBuckets,
              4 * std::sqrt(mean_rate * kBuckets));

  // The trough bucket really is quieter than the peak bucket.
  EXPECT_LT(counts.front(), counts[kBuckets / 2] / 2);
}

TEST(LoadShapeStatsTest, PiecewiseZeroRateWindowsAreExactlySilent) {
  LoadShapeSpec shape;
  shape.kind = LoadShapeKind::kPiecewise;
  shape.piecewise = {{0, 1000}, {2, 0}, {4, 3000}};
  ASSERT_TRUE(shape.Validate().ok());
  const auto arrivals = CollectArrivals(shape, 6 * kSecond, 53);

  const auto counts = Buckets(arrivals, 2 * kSecond, 3);
  EXPECT_NEAR(counts[0], 2000, 5 * std::sqrt(2000.0));
  EXPECT_EQ(counts[1], 0) << "thinning must reject every candidate in a zero-rate window";
  EXPECT_NEAR(counts[2], 6000, 5 * std::sqrt(6000.0));
}

TEST(LoadShapeStatsTest, FlashCrowdSpikeIsConfinedToItsWindow) {
  const auto shape = FlashCrowdLoad(/*base_qps=*/500, /*spike_qps=*/4000,
                                    /*start_sec=*/2, /*duration_sec=*/1);
  const auto arrivals = CollectArrivals(shape, 5 * kSecond, 61);
  const auto counts = Buckets(arrivals, kSecond, 5);
  for (int i : {0, 1, 3, 4}) {
    EXPECT_NEAR(counts[static_cast<size_t>(i)], 500, 5 * std::sqrt(500.0)) << "bucket " << i;
  }
  EXPECT_NEAR(counts[2], 4000, 5 * std::sqrt(4000.0));
}

TEST(LoadShapeStatsTest, RampIntensityClimbsLinearly) {
  LoadShapeSpec shape;
  shape.kind = LoadShapeKind::kRamp;
  shape.qps = 200;
  shape.ramp_end_qps = 2200;
  shape.ramp_duration_sec = 10;
  ASSERT_TRUE(shape.Validate().ok());
  const auto arrivals = CollectArrivals(shape, 10 * kSecond, 71);
  const auto counts = Buckets(arrivals, kSecond, 10);
  for (int i = 0; i < 10; ++i) {
    const double expected = shape.RateAt(i * kSecond + kSecond / 2);
    EXPECT_NEAR(counts[static_cast<size_t>(i)], expected, 5 * std::sqrt(expected) + 3)
        << "bucket " << i;
  }
}

// --- Shape evaluation unit checks -------------------------------------------

TEST(LoadShapeTest, RateAtAndPeakRatePerShape) {
  EXPECT_DOUBLE_EQ(ConstantLoad(1234).RateAt(5 * kSecond), 1234);
  EXPECT_DOUBLE_EQ(ConstantLoad(1234).PeakRate(), 1234);

  const LoadShapeSpec diurnal = DiurnalLoad(1000, 10, 0.25);
  EXPECT_DOUBLE_EQ(diurnal.RateAt(0), 250);            // trough at t=0
  EXPECT_DOUBLE_EQ(diurnal.RateAt(5 * kSecond), 1000); // peak mid-period
  EXPECT_DOUBLE_EQ(diurnal.PeakRate(), 1000);

  LoadShapeSpec square;
  square.kind = LoadShapeKind::kSquareWave;
  square.qps = 100;
  square.square_burst_qps = 900;
  square.square_period_sec = 4;
  square.square_duty = 0.25;
  EXPECT_DOUBLE_EQ(square.RateAt(0), 900);             // burst leads the period
  EXPECT_DOUBLE_EQ(square.RateAt(2 * kSecond), 100);
  EXPECT_DOUBLE_EQ(square.RateAt(4 * kSecond), 900);   // wraps
  EXPECT_DOUBLE_EQ(square.PeakRate(), 900);

  LoadShapeSpec ramp;
  ramp.kind = LoadShapeKind::kRamp;
  ramp.qps = 100;
  ramp.ramp_end_qps = 1100;
  ramp.ramp_duration_sec = 10;
  EXPECT_DOUBLE_EQ(ramp.RateAt(0), 100);
  EXPECT_DOUBLE_EQ(ramp.RateAt(5 * kSecond), 600);
  EXPECT_DOUBLE_EQ(ramp.RateAt(20 * kSecond), 1100);   // clamps after the ramp
  EXPECT_DOUBLE_EQ(ramp.PeakRate(), 1100);

  LoadShapeSpec piecewise;
  piecewise.kind = LoadShapeKind::kPiecewise;
  piecewise.piecewise = {{0, 10}, {1, 30}, {5, 20}};
  EXPECT_DOUBLE_EQ(piecewise.RateAt(0), 10);
  EXPECT_DOUBLE_EQ(piecewise.RateAt(3 * kSecond), 30);
  EXPECT_DOUBLE_EQ(piecewise.RateAt(7 * kSecond), 20);
  EXPECT_DOUBLE_EQ(piecewise.PeakRate(), 30);
}

TEST(LoadShapeTest, ValidateRejectsBadShapes) {
  EXPECT_FALSE(ConstantLoad(-1).Validate().ok());
  EXPECT_FALSE(ConstantLoad(0).Validate().ok());

  // inf/NaN would wedge the thinning loop (one arrival per tick) or slip
  // through one-sided range checks; they must be rejected up front.
  EXPECT_FALSE(ConstantLoad(std::numeric_limits<double>::infinity()).Validate().ok());
  EXPECT_FALSE(ConstantLoad(std::numeric_limits<double>::quiet_NaN()).Validate().ok());
  {
    LoadShapeSpec nan_time;
    nan_time.kind = LoadShapeKind::kPiecewise;
    nan_time.piecewise = {{std::numeric_limits<double>::quiet_NaN(), 100}};
    EXPECT_FALSE(nan_time.Validate().ok());
  }

  LoadShapeSpec diurnal = DiurnalLoad(1000, 0);
  EXPECT_FALSE(diurnal.Validate().ok());  // zero period
  diurnal = DiurnalLoad(1000, 10, 1.5);
  EXPECT_FALSE(diurnal.Validate().ok());  // trough fraction > 1

  LoadShapeSpec square;
  square.kind = LoadShapeKind::kSquareWave;
  square.square_duty = 0;
  EXPECT_FALSE(square.Validate().ok());
  square.square_duty = 1;
  EXPECT_FALSE(square.Validate().ok());

  LoadShapeSpec piecewise;
  piecewise.kind = LoadShapeKind::kPiecewise;
  EXPECT_FALSE(piecewise.Validate().ok());  // empty table
  piecewise.piecewise = {{0, 100}, {0, 200}};
  EXPECT_FALSE(piecewise.Validate().ok());  // non-increasing times
  piecewise.piecewise = {{0, -5}};
  EXPECT_FALSE(piecewise.Validate().ok());  // negative rate
  piecewise.piecewise = {{0, 0}, {1, 0}};
  EXPECT_FALSE(piecewise.Validate().ok());  // never positive
  piecewise.piecewise = {{0, 100}, {1, 0}};
  EXPECT_TRUE(piecewise.Validate().ok());

  LoadShapeSpec flash = FlashCrowdLoad(100, -1, 0, 1);
  EXPECT_FALSE(flash.Validate().ok());
  flash = FlashCrowdLoad(100, 400, 1, 0);
  EXPECT_FALSE(flash.Validate().ok());  // zero-length spike
}

TEST(LoadShapeTest, KindNamesRoundTrip) {
  for (LoadShapeKind kind :
       {LoadShapeKind::kConstant, LoadShapeKind::kDiurnal, LoadShapeKind::kRamp,
        LoadShapeKind::kFlashCrowd, LoadShapeKind::kSquareWave, LoadShapeKind::kPiecewise}) {
    auto parsed = ParseEnum<LoadShapeKind>(NameOf(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseEnum<LoadShapeKind>("sawtooth").ok());
}

}  // namespace
}  // namespace perfiso
