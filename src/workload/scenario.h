// Declarative scenario specifications.
//
// A ScenarioSpec names everything one experiment needs — a load shape for
// the open-loop replay client, a secondary-tenant mix, a topology, and an
// optional PerfIso configuration — and serializes to the same flat
// key=value format as PerfIsoConfig (§4). Benches and tests enumerate
// scenarios from the registry in bench/harness.h by name instead of
// hand-rolling structs; a spec parsed from a config file runs the exact same
// experiment as a compiled-in one.
//
// Key namespace: all scenario keys live under `workload.`; the embedded
// PerfIso configuration (when `workload.isolation = perfiso`) is flattened
// under `perfiso.`, and observability and fault knobs under `obs.`
// (src/obs/obs.h) and `fault.` (src/fault/fault_plan.h). One field table,
// ScenarioSpec::Fields, names every key once and nests the other tables;
// the parser rejects any key that table does not consume, so a typo'd or
// inapplicable knob fails loudly instead of silently running defaults.
#ifndef PERFISO_SRC_WORKLOAD_SCENARIO_H_
#define PERFISO_SRC_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/fault/fault_plan.h"
#include "src/obs/obs.h"
#include "src/perfiso/perfiso_config.h"
#include "src/util/config.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"
#include "src/workload/load_shape.h"

namespace perfiso {

// The secondary tenants colocated with the index server. All run inside the
// machine's unified secondary job object (§4).
struct TenantMixSpec {
  int cpu_bully_threads = 0;  // 0 = no CPU bully
  bool disk_bully = false;
  bool hdfs_client = false;
  bool ml_training = false;
  int ml_worker_threads = 48;
};

// Cluster shape. columns == 0 selects the single-box rigs of Figs. 4-8;
// columns > 0 selects the TLA/MLA cluster of Figs. 9-10.
struct TopologySpec {
  int columns = 0;
  int rows = 2;
  int tla_machines = 2;
};

// Largest accepted trace length. The trace is generated up front, one
// QueryWork per query, so an unbounded count would be one allocation of any
// size; 2^22 queries is about 200x the 20,000 the registry and benches use.
inline constexpr size_t kMaxTraceCount = size_t{1} << 22;

struct ScenarioSpec {
  std::string name;  // registry key; informational in serialized form

  LoadShapeSpec load;
  TenantMixSpec tenants;
  TopologySpec topology;

  // Must be 0 (Validate() rejects anything else; partitioned simulation was
  // removed) and is never serialized. Kept only because perfbench/driver.cc,
  // which is frozen, assigns it 0.
  int sim_partitions = 0;

  // nullopt = no isolation (the paper's "No isolation" rows).
  std::optional<PerfIsoConfig> perfiso;

  // Observability knobs (obs.* namespace). Disabled by default: nothing is
  // serialized and the run constructs no ObsContext, so legacy configs and
  // golden digests are untouched.
  ObsSpec obs;

  // Fault plan (fault.* namespace). Same contract as obs: disabled by
  // default, serializes nothing, constructs no FaultInjector, and leaves
  // every golden digest bit-identical.
  FaultPlan fault;

  SimDuration warmup = kSecond;
  SimDuration measure = 8 * kSecond;  // benches scale this by BenchScale()

  // Trace replay determinism: the synthetic trace and the client draw from
  // fixed seeds, so a spec's result is a pure function of its fields (the
  // parallel-runner contract, DESIGN.md §4).
  size_t trace_count = 20000;  // at most kMaxTraceCount
  uint64_t trace_seed = 2017;
  uint64_t client_seed = 7;
  // Seeds the single box only: a cluster seeds each node from
  // ClusterOptions::seed.
  uint64_t node_seed = 77;

  // The field table (src/util/config.h). It visits only the keys relevant to
  // the active shape, topology and isolation, so a round trip preserves the
  // knobs that matter and the parser rejects the rest.
  template <class V>
  void Fields(V& v);

  // Serialization to/from the key=value config format. FromConfigMap also
  // runs Validate().
  ConfigMap ToConfigMap() const;
  static StatusOr<ScenarioSpec> FromConfigMap(const ConfigMap& map);

  // Rejects invalid shapes (negative rates, empty piecewise tables), bad
  // tenant/topology parameters, non-positive windows, and invalid obs knobs
  // or fault plans.
  Status Validate() const;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_WORKLOAD_SCENARIO_H_
