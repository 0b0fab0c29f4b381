// Deterministic pseudo-random number generation for simulations.
//
// xoshiro256** — fast, high-quality, reproducible across platforms (unlike
// std::normal_distribution etc., whose output is implementation-defined).
// All distribution sampling used by the simulator lives here so experiment
// results are bit-identical for a given seed.
#ifndef PERFISO_SRC_UTIL_RNG_H_
#define PERFISO_SRC_UTIL_RNG_H_

#include <cmath>
#include <cstdint>

namespace perfiso {

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference implementation).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller (deterministic, no cached spare).
  double Normal(double mean, double stddev);

  // Log-normal parameterized by the *underlying* normal's mu/sigma.
  // Median = exp(mu).
  double LogNormal(double mu, double sigma);

  // Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  // Splits off an independently-seeded child stream; used to give each
  // simulated machine / tenant its own stream so runs stay reproducible when
  // components are added or reordered.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_RNG_H_
