#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace perfiso {

namespace {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

// One FNV-1a step over the eight bytes of `word`, low byte first.
uint64_t FnvMix(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

// Nearest-rank: the 1-based rank of the smallest value with at least
// ceil(p/100 * n) of n samples <= it. n > 0.
size_t NearestRank(double p, size_t n) {
  if (p <= 0) {
    return 1;
  }
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

void LatencyRecorder::Add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  sorted_valid_ = false;
}

uint64_t LatencyRecorder::Digest() const {
  uint64_t hash = FnvMix(kFnvOffsetBasis, samples_.size());
  for (double sample : samples_) {
    uint64_t bits;
    std::memcpy(&bits, &sample, sizeof(bits));
    hash = FnvMix(hash, bits);
  }
  return hash;
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  if (other.samples_.empty()) {
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sum_ += other.sum_;
  sorted_valid_ = false;
}

void LatencyRecorder::Clear() {
  samples_.clear();
  sorted_.clear();
  sorted_valid_ = true;
  sum_ = 0;
}

double LatencyRecorder::Min() const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  return sorted_.front();
}

double LatencyRecorder::Max() const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  return sorted_.back();
}

double LatencyRecorder::Mean() const {
  return samples_.empty() ? 0 : sum_ / static_cast<double>(samples_.size());
}

double LatencyRecorder::Percentile(double p) const {
  if (samples_.empty()) {
    return 0;
  }
  assert(p >= 0 && p <= 100);
  return OrderStatistic(NearestRank(p, samples_.size()));
}

double LatencyRecorder::OrderStatistic(size_t rank) const {
  assert(rank >= 1 && rank <= samples_.size());
  EnsureSorted();
  return sorted_[rank - 1];
}

void LatencyRecorder::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double ZeroRunRecorder::Min() const { return zeros_ > 0 ? 0 : nonzero_.Min(); }

double ZeroRunRecorder::Max() const { return nonzero_.Max(); }

double ZeroRunRecorder::Mean() const {
  return Count() == 0 ? 0 : nonzero_.Sum() / static_cast<double>(Count());
}

double ZeroRunRecorder::Percentile(double p) const {
  if (Count() == 0) {
    return 0;
  }
  assert(p >= 0 && p <= 100);
  const size_t rank = NearestRank(p, Count());
  return rank <= zeros_ ? 0 : nonzero_.OrderStatistic(rank - zeros_);
}

uint64_t ZeroRunRecorder::Digest() const { return FnvMix(nonzero_.Digest(), zeros_); }

MovingAverage::MovingAverage(size_t window) : window_(window) { assert(window > 0); }

void MovingAverage::Add(double sample) {
  window_samples_.push_back(sample);
  sum_ += sample;
  if (window_samples_.size() > window_) {
    sum_ -= window_samples_.front();
    window_samples_.pop_front();
  }
}

double MovingAverage::Value() const {
  if (window_samples_.empty()) {
    return 0;
  }
  return sum_ / static_cast<double>(window_samples_.size());
}

void MeanVar::Add(double sample) {
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double MeanVar::Variance() const {
  return count_ < 2 ? 0 : m2_ / static_cast<double>(count_ - 1);
}

double MeanVar::StdDev() const { return std::sqrt(Variance()); }

}  // namespace perfiso
