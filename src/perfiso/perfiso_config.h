// PerfIsoConfig: every tunable of the framework, serializable to the
// cluster-wide key=value files PerfIso reads its limits from (§4).
#ifndef PERFISO_SRC_PERFISO_PERFISO_CONFIG_H_
#define PERFISO_SRC_PERFISO_PERFISO_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/perfiso/policy.h"
#include "src/util/config.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace perfiso {

// How the CPU side of the secondary is managed.
enum class CpuIsolationMode {
  kNone,            // colocation without isolation (the paper's "No isolation")
  kBlindIsolation,  // §3.1, the paper's contribution
  kStaticCores,     // OS-native static core restriction (§6.1.4)
  kCpuRateCap,      // OS-native CPU-cycle restriction (§6.1.4)
};

inline const auto& EnumNames(CpuIsolationMode) {
  static constexpr EnumName<CpuIsolationMode> kNames[] = {
      {CpuIsolationMode::kNone, "none"},
      {CpuIsolationMode::kBlindIsolation, "blind"},
      {CpuIsolationMode::kStaticCores, "static_cores"},
      {CpuIsolationMode::kCpuRateCap, "cpu_rate_cap"},
  };
  return kNames;
}

inline const auto& EnumNames(CorePlacement) {
  static constexpr EnumName<CorePlacement> kNames[] = {
      {CorePlacement::kPackHigh, "pack_high"},
      {CorePlacement::kPackLow, "pack_low"},
      {CorePlacement::kSpread, "spread"},
  };
  return kNames;
}

// Static I/O limit for one secondary I/O owner (e.g. "HDFS clients are
// limited to 60 MB/s", §5.3).
struct IoOwnerLimit {
  int owner = 0;
  double bandwidth_bps = 0;  // <= 0: none
  double iops = 0;           // <= 0: none
  int priority = 2;          // scheduler band, 0 = highest
  double weight = 1.0;       // DWRR weight
  double min_iops_guarantee = 0;  // lim_i in the deficit formula (§4.1)
};

struct PerfIsoConfig {
  CpuIsolationMode cpu_mode = CpuIsolationMode::kBlindIsolation;
  BlindIsolationSettings blind;
  int static_secondary_cores = 8;   // for kStaticCores
  double cpu_rate_cap = 0.05;       // for kCpuRateCap
  SimDuration poll_interval = FromMillis(1);

  // Memory watchdog (§3.2: "when memory runs very low, secondary processes
  // are killed").
  int64_t min_free_memory_bytes = 4LL * 1024 * 1024 * 1024;
  int memory_check_every_n_polls = 256;

  // Egress throttle for the secondary (§3.2); <= 0 disables.
  double egress_rate_cap_bps = 0;

  // Static I/O limits and DWRR parameters for secondary I/O owners.
  std::vector<IoOwnerLimit> io_limits;
  // Moving-average window (in polls) for the I/O throttler's IOPS estimate.
  int io_window_polls = 16;
  SimDuration io_poll_interval = FromMillis(100);

  // The field table (src/util/config.h): every key once. I/O limits use
  // keys io.owner.<owner>.bandwidth_bps etc.
  template <class V>
  void Fields(V& v);

  // Serialization to/from the key=value config format. FromConfigMap is
  // strict: a bad value or any key the table does not consume is an error.
  ConfigMap ToConfigMap() const;
  static StatusOr<PerfIsoConfig> FromConfigMap(const ConfigMap& map);

  // Validation used by the controller before applying. Holds for configs
  // built in code as well as parsed ones: NaN fails every range check.
  Status Validate(int num_cores) const;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PERFISO_PERFISO_CONFIG_H_
