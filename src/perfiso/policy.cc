#include "src/perfiso/policy.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace perfiso {

CpuSet BuildPlacementMask(CorePlacement placement, int count, int num_cores) {
  assert(count >= 0 && count <= num_cores);
  if (count == 0) {
    return CpuSet();
  }
  switch (placement) {
    case CorePlacement::kPackHigh:
      return CpuSet::Range(num_cores - count, num_cores);
    case CorePlacement::kPackLow:
      return CpuSet::FirstN(count);
    case CorePlacement::kSpread: {
      CpuSet mask;
      // Distribute `count` cores evenly; highest-index-first within strides
      // so the low cores stay free for the primary where possible.
      for (int i = 0; i < count; ++i) {
        const int cpu = static_cast<int>(
            (static_cast<int64_t>(num_cores) - 1 - static_cast<int64_t>(i) * num_cores / count) %
            num_cores);
        mask.Set(cpu);
      }
      return mask;
    }
  }
  return CpuSet();
}

BlindIsolationPolicy::BlindIsolationPolicy(const BlindIsolationSettings& settings, int num_cores)
    : settings_(settings), num_cores_(num_cores),
      secondary_cores_(std::clamp(settings.initial_secondary_cores, 0,
                                  num_cores - settings.buffer_cores)) {
  assert(settings.buffer_cores >= 0 && settings.buffer_cores < num_cores);
}

std::optional<CpuSet> BlindIsolationPolicy::Decide(int idle) {
  const int buffer = settings_.buffer_cores;
  // Asymmetric deadband: small surpluses of idle cores are measurement
  // jitter and not worth an update, but a deficit (idle < buffer) always
  // triggers — protection must never be dulled.
  if (idle > buffer && idle - buffer <= settings_.idle_deadband &&
      !settings_.update_on_every_poll) {
    return std::nullopt;
  }
  int delta = 0;
  if (settings_.proportional_step) {
    delta = idle - buffer;
  } else if (idle > buffer) {
    delta = 1;
  } else if (idle < buffer) {
    delta = -1;
  }
  const int desired =
      std::clamp(secondary_cores_ + delta, 0, num_cores_ - buffer);
  if (desired == secondary_cores_ && !settings_.update_on_every_poll) {
    return std::nullopt;
  }
  secondary_cores_ = desired;
  return BuildPlacementMask(settings_.placement, desired, num_cores_);
}

BlindIsolationPolicy::IdleRange BlindIsolationPolicy::QuietRange() const {
  if (settings_.update_on_every_poll) {
    return IdleRange{};
  }
  const int buffer = settings_.buffer_cores;
  const int max_secondary = num_cores_ - buffer;
  return IdleRange{
      secondary_cores_ == 0 ? 0 : buffer,
      secondary_cores_ == max_secondary ? std::numeric_limits<int>::max()
                                        : buffer + std::max(settings_.idle_deadband, 0)};
}

}  // namespace perfiso
