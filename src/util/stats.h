// Online statistics used to measure latency distributions and utilization.
//
// LatencyRecorder keeps exact samples (simulation runs are bounded) so
// percentile queries match the paper's reporting exactly. ZeroRunRecorder
// answers the same queries for a non-negative stream that is mostly zeros
// while storing only the nonzero samples. MovingAverage and MeanVar provide
// the smoothing the PerfIso I/O throttler needs.
#ifndef PERFISO_SRC_UTIL_STATS_H_
#define PERFISO_SRC_UTIL_STATS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace perfiso {

// Records scalar samples and answers percentile queries exactly.
// Samples are stored raw; Percentile() sorts lazily and caches.
class LatencyRecorder {
 public:
  LatencyRecorder() = default;

  void Add(double sample);
  void Clear();

  // Appends `other`'s samples in their recorded order after this recorder's
  // own. Merging preserves digest semantics: merging B into A yields the same
  // digest as one recorder that saw A's samples then B's. Used by the
  // timeseries sampler and the parallel bench runner to combine shards.
  void Merge(const LatencyRecorder& other);

  size_t Count() const { return samples_.size(); }
  double Min() const;
  double Max() const;
  double Mean() const;
  // Sum of the samples in recorded order (the numerator of Mean()).
  double Sum() const { return sum_; }

  // p in [0, 100]. Uses the nearest-rank method. Returns 0 when empty.
  double Percentile(double p) const;
  // The rank-th smallest sample, rank in [1, Count()].
  double OrderStatistic(size_t rank) const;

  // Convenience accessors matching the paper's reported metrics.
  double P50() const { return Percentile(50); }
  double P95() const { return Percentile(95); }
  double P99() const { return Percentile(99); }

  // Order-sensitive FNV-1a digest over the raw sample bit patterns: two
  // recorders digest equal iff they saw the same samples in the same order.
  // Used by the determinism tests to compare whole runs bit-exactly (the
  // parallel bench runner's contract, DESIGN.md).
  uint64_t Digest() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = true;
  double sum_ = 0;
};

// Records a stream of non-negative samples as a count of zeros plus a
// LatencyRecorder of the nonzero samples, so a stream that is mostly zeros
// (wake-to-dispatch delays on a machine with idle cores) holds memory only for
// its nonzero part. Count, Min, Max, Mean and Percentile return exactly what a
// LatencyRecorder fed the same stream returns: the zeros sort first, and
// adding a zero leaves a sum's bits unchanged.
class ZeroRunRecorder {
 public:
  void Add(double sample) {
    assert(sample >= 0);
    if (sample == 0) {
      ++zeros_;
    } else {
      nonzero_.Add(sample);
    }
  }

  size_t Count() const { return zeros_ + nonzero_.Count(); }
  size_t zeros() const { return zeros_; }
  const LatencyRecorder& nonzero() const { return nonzero_; }
  double Min() const;
  double Max() const;
  double Mean() const;

  // Nearest-rank, as LatencyRecorder::Percentile. Returns 0 when empty.
  double Percentile(double p) const;
  double P50() const { return Percentile(50); }
  double P99() const { return Percentile(99); }

  // Digest of (zero count, nonzero samples in order). Where the zeros fell
  // between the nonzero samples is not recorded.
  uint64_t Digest() const;

 private:
  size_t zeros_ = 0;
  LatencyRecorder nonzero_;
};

// Fixed-size sliding-window average (the paper's I/O throttler uses a moving
// average of measured IOPS, §4.1).
class MovingAverage {
 public:
  explicit MovingAverage(size_t window);

  void Add(double sample);
  double Value() const;      // average over the current window (0 when empty)
  size_t Count() const { return window_samples_.size(); }
  bool Full() const { return window_samples_.size() == window_; }

 private:
  size_t window_;
  std::deque<double> window_samples_;
  double sum_ = 0;
};

// Welford online mean/variance.
class MeanVar {
 public:
  void Add(double sample);
  size_t Count() const { return count_; }
  double Mean() const { return mean_; }
  double Variance() const;
  double StdDev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_STATS_H_
