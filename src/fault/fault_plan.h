// Declarative fault plans: the fault.* configuration surface of a scenario.
//
// A FaultPlan is a seeded, replayable list of sim-time fault events — index
// node crash/restart windows, disk-degradation windows (latency multiplier),
// fabric link bandwidth degradation / flaps, and CPU stragglers — serialized
// alongside the workload./perfiso./obs. namespaces of a ScenarioSpec.
//
// Determinism contract (DESIGN.md §8): a disabled plan emits nothing when
// serialized, constructs no FaultInjector, schedules no events, and draws
// from no RNG stream, so every golden latency digest is bit-identical with
// the subsystem compiled in. An enabled plan injects through a FaultInjector
// that owns its EventHandles and forks its own Rng stream; a scenario's
// result remains a pure function of its spec.
#ifndef PERFISO_SRC_FAULT_FAULT_PLAN_H_
#define PERFISO_SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/config.h"
#include "src/util/status.h"

namespace perfiso {

enum class FaultKind {
  kNodeCrash,     // index node dies: in-flight work dropped, rejoins after `duration`
  kDiskDegrade,   // both volumes serve at `severity`x latency for `duration`
  kLinkDegrade,   // node's NIC runs at `severity` (fraction) of rate for `duration`
  kCpuStraggler,  // `severity` runaway OS-class threads occupy cores for `duration`
};

inline const auto& EnumNames(FaultKind) {
  static constexpr EnumName<FaultKind> kNames[] = {
      {FaultKind::kNodeCrash, "crash"},
      {FaultKind::kDiskDegrade, "disk"},
      {FaultKind::kLinkDegrade, "link"},
      {FaultKind::kCpuStraggler, "straggler"},
  };
  return kNames;
}

// The largest disk-degrade latency multiplier a plan may ask for. A
// million-fold slowdown keeps any service time below 9.2e12 ns (2.5 h, far
// beyond any modeled request) inside DiskDevice::ServiceTime's int64 cast.
inline constexpr double kMaxDiskDegradeSeverity = 1e6;

// One scheduled fault: injected at `at_sec` (absolute sim time, like the
// flash-crowd window), recovered at `at_sec + duration_sec`.
struct FaultEvent {
  FaultKind kind = FaultKind::kNodeCrash;
  int node = 0;            // index-node id (single-box rigs are node 0)
  double at_sec = 0;
  double duration_sec = 1;
  // Kind-specific magnitude: latency multiplier (disk, in
  // [1, kMaxDiskDegradeSeverity]), fraction of nominal rate (link, in
  // (0, 1]), straggler thread count (>= 1). Unused for crashes.
  double severity = 1;
};

struct FaultPlan {
  bool enabled = false;
  uint64_t seed = 13;  // the injector's private Rng stream
  std::vector<FaultEvent> events;

  // `num_nodes` bounds event.node (pass 1 for single-box rigs).
  Status Validate(int num_nodes) const;
  // Shape-only validation when the topology is not yet known.
  Status Validate() const;

  // The field table (src/util/config.h): nothing when disabled, so parsers
  // reject any stray fault.* key, mirroring obs.*. Events are one list value,
  // fault.events = kind:node:at_sec:duration_sec:severity,...
  template <class V>
  void Fields(V& v);
  // Emits fault.* keys into `map`.
  void AppendToConfigMap(ConfigMap* map) const;
  // Parses fault.* keys and runs the shape-only Validate(); any other key is
  // an error.
  static StatusOr<FaultPlan> FromConfigMap(const ConfigMap& map);

  // Deterministically samples a valid random plan — the fuzz smoke's
  // generator. Draws only from a local Rng seeded with `seed`; events land in
  // [0, horizon_sec) on nodes [0, num_nodes).
  static FaultPlan Sample(uint64_t seed, int num_nodes, double horizon_sec);
};

}  // namespace perfiso

#endif  // PERFISO_SRC_FAULT_FAULT_PLAN_H_
