#include "src/perfiso/perfiso_config.h"

#include <charconv>
#include <set>

namespace perfiso {

const char* CpuIsolationModeName(CpuIsolationMode mode) {
  switch (mode) {
    case CpuIsolationMode::kNone:
      return "none";
    case CpuIsolationMode::kBlindIsolation:
      return "blind";
    case CpuIsolationMode::kStaticCores:
      return "static_cores";
    case CpuIsolationMode::kCpuRateCap:
      return "cpu_rate_cap";
  }
  return "?";
}

StatusOr<CpuIsolationMode> ParseCpuIsolationMode(const std::string& name) {
  if (name == "none") {
    return CpuIsolationMode::kNone;
  }
  if (name == "blind") {
    return CpuIsolationMode::kBlindIsolation;
  }
  if (name == "static_cores") {
    return CpuIsolationMode::kStaticCores;
  }
  if (name == "cpu_rate_cap") {
    return CpuIsolationMode::kCpuRateCap;
  }
  return InvalidArgumentError("unknown cpu isolation mode: " + name);
}

namespace {

const char* PlacementName(CorePlacement placement) {
  switch (placement) {
    case CorePlacement::kPackHigh:
      return "pack_high";
    case CorePlacement::kPackLow:
      return "pack_low";
    case CorePlacement::kSpread:
      return "spread";
  }
  return "?";
}

StatusOr<CorePlacement> ParsePlacement(const std::string& name) {
  if (name == "pack_high") {
    return CorePlacement::kPackHigh;
  }
  if (name == "pack_low") {
    return CorePlacement::kPackLow;
  }
  if (name == "spread") {
    return CorePlacement::kSpread;
  }
  return InvalidArgumentError("unknown core placement: " + name);
}

}  // namespace

ConfigMap PerfIsoConfig::ToConfigMap() const {
  ConfigMap map;
  map.SetBool("enabled", enabled);
  map.SetString("cpu.mode", CpuIsolationModeName(cpu_mode));
  map.SetInt("cpu.buffer_cores", blind.buffer_cores);
  map.SetBool("cpu.proportional_step", blind.proportional_step);
  map.SetString("cpu.placement", PlacementName(blind.placement));
  map.SetInt("cpu.initial_secondary_cores", blind.initial_secondary_cores);
  map.SetBool("cpu.update_on_every_poll", blind.update_on_every_poll);
  map.SetInt("cpu.idle_deadband", blind.idle_deadband);
  map.SetInt("cpu.static_secondary_cores", static_secondary_cores);
  map.SetDouble("cpu.rate_cap", cpu_rate_cap);
  map.SetInt("poll_interval_us", static_cast<int64_t>(ToMicros(poll_interval)));
  map.SetInt("memory.min_free_bytes", min_free_memory_bytes);
  map.SetInt("memory.check_every_n_polls", memory_check_every_n_polls);
  map.SetDouble("net.egress_rate_cap_bps", egress_rate_cap_bps);
  map.SetDouble("net.link_rate_bps", net.link_rate_bps);
  map.SetDouble("net.uplink_oversubscription", net.uplink_oversubscription);
  map.SetInt("net.machines_per_rack", net.machines_per_rack);
  map.SetInt("net.base_latency_us", static_cast<int64_t>(ToMicros(net.base_latency)));
  map.SetInt("net.chunk_bytes", net.chunk_bytes);
  map.SetBool("net.tx_priority", net.tx_priority);
  map.SetInt("io.window_polls", io_window_polls);
  map.SetInt("io.poll_interval_us", static_cast<int64_t>(ToMicros(io_poll_interval)));
  for (const IoOwnerLimit& limit : io_limits) {
    const std::string prefix = "io.owner." + std::to_string(limit.owner) + ".";
    map.SetDouble(prefix + "bandwidth_bps", limit.bandwidth_bps);
    map.SetDouble(prefix + "iops", limit.iops);
    map.SetInt(prefix + "priority", limit.priority);
    map.SetDouble(prefix + "weight", limit.weight);
    map.SetDouble(prefix + "min_iops_guarantee", limit.min_iops_guarantee);
  }
  return map;
}

StatusOr<PerfIsoConfig> PerfIsoConfig::FromConfigMap(const ConfigMap& map) {
  PerfIsoConfig config;

  auto enabled = map.GetBool("enabled", config.enabled);
  PERFISO_RETURN_IF_ERROR(enabled.status());
  config.enabled = *enabled;

  auto mode_name = map.GetString("cpu.mode", CpuIsolationModeName(config.cpu_mode));
  PERFISO_RETURN_IF_ERROR(mode_name.status());
  auto mode = ParseCpuIsolationMode(*mode_name);
  PERFISO_RETURN_IF_ERROR(mode.status());
  config.cpu_mode = *mode;

  auto buffer = map.GetInt("cpu.buffer_cores", config.blind.buffer_cores);
  PERFISO_RETURN_IF_ERROR(buffer.status());
  config.blind.buffer_cores = static_cast<int>(*buffer);

  auto step = map.GetBool("cpu.proportional_step", config.blind.proportional_step);
  PERFISO_RETURN_IF_ERROR(step.status());
  config.blind.proportional_step = *step;

  auto placement_name =
      map.GetString("cpu.placement", PlacementName(config.blind.placement));
  PERFISO_RETURN_IF_ERROR(placement_name.status());
  auto placement = ParsePlacement(*placement_name);
  PERFISO_RETURN_IF_ERROR(placement.status());
  config.blind.placement = *placement;

  auto initial =
      map.GetInt("cpu.initial_secondary_cores", config.blind.initial_secondary_cores);
  PERFISO_RETURN_IF_ERROR(initial.status());
  config.blind.initial_secondary_cores = static_cast<int>(*initial);

  auto every_poll =
      map.GetBool("cpu.update_on_every_poll", config.blind.update_on_every_poll);
  PERFISO_RETURN_IF_ERROR(every_poll.status());
  config.blind.update_on_every_poll = *every_poll;

  auto deadband = map.GetInt("cpu.idle_deadband", config.blind.idle_deadband);
  PERFISO_RETURN_IF_ERROR(deadband.status());
  config.blind.idle_deadband = static_cast<int>(*deadband);

  auto static_cores =
      map.GetInt("cpu.static_secondary_cores", config.static_secondary_cores);
  PERFISO_RETURN_IF_ERROR(static_cores.status());
  config.static_secondary_cores = static_cast<int>(*static_cores);

  auto rate = map.GetDouble("cpu.rate_cap", config.cpu_rate_cap);
  PERFISO_RETURN_IF_ERROR(rate.status());
  config.cpu_rate_cap = *rate;

  auto poll_us =
      map.GetInt("poll_interval_us", static_cast<int64_t>(ToMicros(config.poll_interval)));
  PERFISO_RETURN_IF_ERROR(poll_us.status());
  config.poll_interval = FromMicros(static_cast<double>(*poll_us));

  auto min_free = map.GetInt("memory.min_free_bytes", config.min_free_memory_bytes);
  PERFISO_RETURN_IF_ERROR(min_free.status());
  config.min_free_memory_bytes = *min_free;

  auto mem_polls =
      map.GetInt("memory.check_every_n_polls", config.memory_check_every_n_polls);
  PERFISO_RETURN_IF_ERROR(mem_polls.status());
  config.memory_check_every_n_polls = static_cast<int>(*mem_polls);

  auto egress = map.GetDouble("net.egress_rate_cap_bps", config.egress_rate_cap_bps);
  PERFISO_RETURN_IF_ERROR(egress.status());
  config.egress_rate_cap_bps = *egress;

  auto link_rate = map.GetDouble("net.link_rate_bps", config.net.link_rate_bps);
  PERFISO_RETURN_IF_ERROR(link_rate.status());
  config.net.link_rate_bps = *link_rate;

  auto oversub =
      map.GetDouble("net.uplink_oversubscription", config.net.uplink_oversubscription);
  PERFISO_RETURN_IF_ERROR(oversub.status());
  config.net.uplink_oversubscription = *oversub;

  auto rack = map.GetInt("net.machines_per_rack", config.net.machines_per_rack);
  PERFISO_RETURN_IF_ERROR(rack.status());
  config.net.machines_per_rack = static_cast<int>(*rack);

  auto base_us = map.GetInt("net.base_latency_us",
                            static_cast<int64_t>(ToMicros(config.net.base_latency)));
  PERFISO_RETURN_IF_ERROR(base_us.status());
  config.net.base_latency = FromMicros(static_cast<double>(*base_us));

  auto chunk = map.GetInt("net.chunk_bytes", config.net.chunk_bytes);
  PERFISO_RETURN_IF_ERROR(chunk.status());
  config.net.chunk_bytes = *chunk;

  auto tx_priority = map.GetBool("net.tx_priority", config.net.tx_priority);
  PERFISO_RETURN_IF_ERROR(tx_priority.status());
  config.net.tx_priority = *tx_priority;

  auto window = map.GetInt("io.window_polls", config.io_window_polls);
  PERFISO_RETURN_IF_ERROR(window.status());
  config.io_window_polls = static_cast<int>(*window);

  auto io_poll_us = map.GetInt("io.poll_interval_us",
                               static_cast<int64_t>(ToMicros(config.io_poll_interval)));
  PERFISO_RETURN_IF_ERROR(io_poll_us.status());
  config.io_poll_interval = FromMicros(static_cast<double>(*io_poll_us));

  // Collect io.owner.<id>.* keys.
  std::set<int> owners;
  for (const auto& [key, value] : map.entries()) {
    constexpr const char* kPrefix = "io.owner.";
    if (key.rfind(kPrefix, 0) != 0) {
      continue;
    }
    const size_t id_begin = std::string(kPrefix).size();
    const size_t id_end = key.find('.', id_begin);
    if (id_end == std::string::npos) {
      return InvalidArgumentError("malformed io.owner key: " + key);
    }
    const std::string id_text = key.substr(id_begin, id_end - id_begin);
    int owner = 0;
    const auto parsed =
        std::from_chars(id_text.data(), id_text.data() + id_text.size(), owner);
    if (parsed.ec != std::errc() || parsed.ptr != id_text.data() + id_text.size()) {
      return InvalidArgumentError("io.owner id is not an integer: " + key);
    }
    owners.insert(owner);
  }
  for (int owner : owners) {
    const std::string prefix = "io.owner." + std::to_string(owner) + ".";
    IoOwnerLimit limit;
    limit.owner = owner;
    auto bandwidth = map.GetDouble(prefix + "bandwidth_bps", 0);
    PERFISO_RETURN_IF_ERROR(bandwidth.status());
    limit.bandwidth_bps = *bandwidth;
    auto iops = map.GetDouble(prefix + "iops", 0);
    PERFISO_RETURN_IF_ERROR(iops.status());
    limit.iops = *iops;
    auto priority = map.GetInt(prefix + "priority", 2);
    PERFISO_RETURN_IF_ERROR(priority.status());
    limit.priority = static_cast<int>(*priority);
    auto weight = map.GetDouble(prefix + "weight", 1.0);
    PERFISO_RETURN_IF_ERROR(weight.status());
    limit.weight = *weight;
    auto guarantee = map.GetDouble(prefix + "min_iops_guarantee", 0);
    PERFISO_RETURN_IF_ERROR(guarantee.status());
    limit.min_iops_guarantee = *guarantee;
    config.io_limits.push_back(limit);
  }
  return config;
}

StatusOr<PerfIsoConfig> PerfIsoConfig::FromConfigMapStrict(const ConfigMap& map) {
  auto config = FromConfigMap(map);
  PERFISO_RETURN_IF_ERROR(config.status());
  // Every key FromConfigMap understands reappears when the parsed config is
  // re-serialized, so membership in the canonical form is exactly "known".
  const ConfigMap canonical = config->ToConfigMap();
  for (const auto& [key, value] : map.entries()) {
    if (!canonical.Has(key)) {
      return InvalidArgumentError("unknown PerfIso config key: " + key);
    }
  }
  return config;
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
  if (cpu_mode == CpuIsolationMode::kCpuRateCap &&
      (cpu_rate_cap <= 0 || cpu_rate_cap > 1.0)) {
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
  // The fabric validates its own tunables (including that base_latency is
  // strictly positive).
  PERFISO_RETURN_IF_ERROR(net.Validate());
  return OkStatus();
}

}  // namespace perfiso
