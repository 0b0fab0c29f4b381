#include "src/perfiso/perfiso_config.h"

#include <cmath>

#include "src/disk/io_scheduler.h"

namespace perfiso {

template <class V>
void PerfIsoConfig::Fields(V& v) {
  v.Field("cpu.mode", cpu_mode);
  v.Field("cpu.buffer_cores", blind.buffer_cores);
  v.Field("cpu.proportional_step", blind.proportional_step);
  v.Field("cpu.placement", blind.placement);
  v.Field("cpu.initial_secondary_cores", blind.initial_secondary_cores);
  v.Field("cpu.update_on_every_poll", blind.update_on_every_poll);
  v.Field("cpu.idle_deadband", blind.idle_deadband);
  v.Field("cpu.static_secondary_cores", static_secondary_cores);
  v.Field("cpu.rate_cap", cpu_rate_cap);
  v.Micros("poll_interval_us", poll_interval);
  v.Field("memory.min_free_bytes", min_free_memory_bytes);
  v.Field("memory.check_every_n_polls", memory_check_every_n_polls);
  v.Field("net.egress_rate_cap_bps", egress_rate_cap_bps);
  v.Field("io.window_polls", io_window_polls);
  v.Micros("io.poll_interval_us", io_poll_interval);
  v.Keyed("io.owner.", io_limits, &IoOwnerLimit::owner, [](V& owner, IoOwnerLimit& limit) {
    owner.Field("bandwidth_bps", limit.bandwidth_bps);
    owner.Field("iops", limit.iops);
    owner.Field("priority", limit.priority);
    owner.Field("weight", limit.weight);
    owner.Field("min_iops_guarantee", limit.min_iops_guarantee);
  });
}
template void PerfIsoConfig::Fields(ConfigReader&);
template void PerfIsoConfig::Fields(ConfigWriter&);

ConfigMap PerfIsoConfig::ToConfigMap() const {
  ConfigMap map;
  WriteFields(*this, &map);
  return map;
}

StatusOr<PerfIsoConfig> PerfIsoConfig::FromConfigMap(const ConfigMap& map) {
  return ReadFields<PerfIsoConfig>(map);
}

Status PerfIsoConfig::Validate(int num_cores) const {
  // Only the active mode's parameters gate deployment; a config tuned for a
  // 48-core fleet must still load on whatever machine it lands on.
  if (cpu_mode == CpuIsolationMode::kBlindIsolation &&
      (blind.buffer_cores < 0 || blind.buffer_cores >= num_cores)) {
    return InvalidArgumentError("buffer_cores must be in [0, num_cores)");
  }
  if (blind.idle_deadband < 0) {
    return InvalidArgumentError("idle_deadband must be >= 0");
  }
  if (cpu_mode == CpuIsolationMode::kStaticCores &&
      (static_secondary_cores < 0 || static_secondary_cores > num_cores)) {
    return InvalidArgumentError("static_secondary_cores out of range");
  }
  if (cpu_mode == CpuIsolationMode::kCpuRateCap && !(cpu_rate_cap > 0 && cpu_rate_cap <= 1.0)) {
    return InvalidArgumentError("cpu_rate_cap must be in (0, 1]");
  }
  if (poll_interval <= 0 || io_poll_interval <= 0) {
    return InvalidArgumentError("poll intervals must be positive");
  }
  if (memory_check_every_n_polls <= 0) {
    return InvalidArgumentError("memory_check_every_n_polls must be positive");
  }
  if (io_window_polls <= 0) {
    return InvalidArgumentError("io_window_polls must be positive");
  }
  for (const IoOwnerLimit& limit : io_limits) {
    if (!std::isfinite(limit.bandwidth_bps) || !std::isfinite(limit.iops) ||
        !std::isfinite(limit.min_iops_guarantee) || !std::isfinite(limit.weight) ||
        !(limit.weight > 0) || limit.priority < 0 ||
        limit.priority >= IoScheduler::kNumPriorities) {
      return InvalidArgumentError("io owner " + std::to_string(limit.owner) +
                                  ": limits must be finite, weight > 0, priority in [0, " +
                                  std::to_string(IoScheduler::kNumPriorities) + ")");
    }
  }
  return OkStatus();
}

}  // namespace perfiso
