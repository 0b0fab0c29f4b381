// CpuSet: a fixed-capacity bitmask of logical CPU ids.
//
// This is the currency of CPU blind isolation: the idle-core "syscall"
// returns one, and job-object affinity is set from one. Supports up to
// kMaxCpus logical CPUs (the paper's machines have 48; we leave headroom).
//
// The bit operations are defined inline: the machine model tests and combines
// masks on every scheduling decision.
#ifndef PERFISO_SRC_UTIL_CPU_SET_H_
#define PERFISO_SRC_UTIL_CPU_SET_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

namespace perfiso {

class CpuSet {
 public:
  static constexpr int kMaxCpus = 256;
  static constexpr int kWords = kMaxCpus / 64;

  // Empty set.
  constexpr CpuSet() : words_{} {}

  // Set containing CPUs [0, n).
  static CpuSet FirstN(int n) { return Range(0, n); }

  // Set containing CPUs [begin, end).
  static CpuSet Range(int begin, int end) {
    assert(begin >= 0 && end <= kMaxCpus && begin <= end);
    CpuSet set;
    for (int cpu = begin; cpu < end; ++cpu) {
      set.Set(cpu);
    }
    return set;
  }

  // Set containing exactly `cpu`.
  static CpuSet Single(int cpu) {
    CpuSet set;
    set.Set(cpu);
    return set;
  }

  // Set built from the low 64 bits (convenient for <=64-core machines).
  static CpuSet FromMask64(uint64_t mask) {
    CpuSet set;
    set.words_[0] = mask;
    return set;
  }

  void Set(int cpu) {
    assert(cpu >= 0 && cpu < kMaxCpus);
    words_[cpu / 64] |= uint64_t{1} << (cpu % 64);
  }

  void Clear(int cpu) {
    assert(cpu >= 0 && cpu < kMaxCpus);
    words_[cpu / 64] &= ~(uint64_t{1} << (cpu % 64));
  }

  bool Test(int cpu) const {
    if (cpu < 0 || cpu >= kMaxCpus) {
      return false;
    }
    return (words_[cpu / 64] >> (cpu % 64)) & 1;
  }

  // Number of CPUs in the set.
  int Count() const {
    int count = 0;
    for (uint64_t word : words_) {
      count += std::popcount(word);
    }
    return count;
  }

  bool Empty() const {
    for (uint64_t word : words_) {
      if (word != 0) {
        return false;
      }
    }
    return true;
  }

  // Lowest / highest set CPU id, or -1 if empty.
  int Lowest() const {
    for (int w = 0; w < kWords; ++w) {
      if (words_[w] != 0) {
        return w * 64 + std::countr_zero(words_[w]);
      }
    }
    return -1;
  }

  int Highest() const {
    for (int w = kWords - 1; w >= 0; --w) {
      if (words_[w] != 0) {
        return w * 64 + 63 - std::countl_zero(words_[w]);
      }
    }
    return -1;
  }

  // Lowest set CPU id strictly greater than `cpu`, or -1.
  int NextAfter(int cpu) const {
    const int next = cpu + 1;
    if (next <= 0) {
      return Lowest();
    }
    if (next >= kMaxCpus) {
      return -1;
    }
    int w = next / 64;
    uint64_t word = words_[w] & (~uint64_t{0} << (next % 64));  // drop bits <= cpu
    while (word == 0) {
      if (++w == kWords) {
        return -1;
      }
      word = words_[w];
    }
    return w * 64 + std::countr_zero(word);
  }

  // Calls fn(cpu) for each CPU in the set, in ascending order, popping the
  // set bits word by word.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int w = 0; w < kWords; ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + std::countr_zero(bits));
      }
    }
  }

  CpuSet operator|(const CpuSet& other) const {
    CpuSet out = *this;
    out |= other;
    return out;
  }

  CpuSet& operator|=(const CpuSet& other) {
    for (int w = 0; w < kWords; ++w) {
      words_[w] |= other.words_[w];
    }
    return *this;
  }

  CpuSet operator&(const CpuSet& other) const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = words_[w] & other.words_[w];
    }
    return out;
  }

  // Complement over [0, kMaxCpus).
  CpuSet operator~() const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = ~words_[w];
    }
    return out;
  }

  CpuSet Minus(const CpuSet& other) const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = words_[w] & ~other.words_[w];
    }
    return out;
  }

  bool operator==(const CpuSet& other) const { return words_ == other.words_; }
  bool operator!=(const CpuSet& other) const { return !(*this == other); }

  // Low 64 bits, for machines with <= 64 logical CPUs.
  uint64_t Mask64() const { return words_[0]; }

  // Human-readable form, e.g. "0-3,8,10-11" ("(empty)" when empty).
  std::string ToString() const;

 private:
  std::array<uint64_t, kWords> words_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_CPU_SET_H_
