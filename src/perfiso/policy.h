// CPU isolation policies.
//
// BlindIsolationPolicy is the paper's contribution (§3.1): keep B buffer
// cores idle for the primary by resizing the secondary's core allocation S
// from the idle-core count I alone — if I < B shrink S, if I > B grow S —
// with no knowledge of the primary beyond the idle bitmask ("blind").
// StaticCorePolicy and the CPU-rate cap are the OS-native alternatives the
// paper compares against (§6.1.4).
#ifndef PERFISO_SRC_PERFISO_POLICY_H_
#define PERFISO_SRC_PERFISO_POLICY_H_

#include <optional>

#include "src/util/cpu_set.h"

namespace perfiso {

// Where the secondary's cores are placed within the machine.
enum class CorePlacement {
  kPackHigh,  // highest-numbered cores (default: the primary packs low)
  kPackLow,
  kSpread,  // evenly strided across the machine
};

// Builds a mask of `count` cores out of `num_cores` under `placement`.
CpuSet BuildPlacementMask(CorePlacement placement, int count, int num_cores);

struct BlindIsolationSettings {
  int buffer_cores = 8;
  // Step S by (I - B) per decision (true) or by +/-1 (false, ablation).
  bool proportional_step = true;
  // Ignore small idle *surpluses* (buffer < I <= buffer + deadband): a bursty
  // primary jitters the instantaneous idle count every poll, and reacting to
  // every wiggle would mean an affinity update (with preemptions) nearly
  // every millisecond. Deficits (I < buffer) always trigger — protection is
  // never dulled. This realizes §4.1's poll/update split: poll constantly,
  // update only on meaningful change. 0 disables (pure paper formula).
  int idle_deadband = 2;
  CorePlacement placement = CorePlacement::kPackHigh;
  int initial_secondary_cores = 0;
  // Re-issue the affinity even when unchanged (ablation of the poll/update
  // split of §4.1; constant updates are "harmful to performance").
  bool update_on_every_poll = false;
};

class BlindIsolationPolicy {
 public:
  BlindIsolationPolicy(const BlindIsolationSettings& settings, int num_cores);

  // One decision from the current idle-core count (the popcount of the idle
  // mask; nothing else of the mask matters). Returns the new secondary mask,
  // or nullopt when no update should be issued.
  std::optional<CpuSet> Decide(int idle);

  // A closed range of idle counts; empty when lo > hi.
  struct IdleRange {
    int lo = 0;
    int hi = -1;
    bool Empty() const { return lo > hi; }
    bool Contains(int idle) const { return lo <= idle && idle <= hi; }
  };

  // The idle counts for which Decide returns nullopt and changes no state,
  // in the current state (exactly, not a subset):
  //   * I == B is always a no-op, and so is B < I <= B + deadband;
  //   * a deficit (I < B) shrinks S unless S is already 0, so lo is 0 when
  //     S == 0 and B otherwise;
  //   * a surplus past the deadband grows S unless S is already at its
  //     maximum (cores - B), so hi is unbounded (INT_MAX) there and
  //     B + deadband otherwise.
  // Empty under update_on_every_poll, which issues every decision.
  IdleRange QuietRange() const;

  int secondary_cores() const { return secondary_cores_; }
  int buffer_cores() const { return settings_.buffer_cores; }
  const BlindIsolationSettings& settings() const { return settings_; }

 private:
  BlindIsolationSettings settings_;
  int num_cores_;
  int secondary_cores_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PERFISO_POLICY_H_
