#include "src/workload/scenario.h"

#include <limits>

namespace perfiso {
namespace {

// workload.isolation: whether the spec embeds a PerfIso config.
enum class Isolation { kNone, kPerfIso };

const auto& EnumNames(Isolation) {
  static constexpr EnumName<Isolation> kNames[] = {{Isolation::kNone, "none"},
                                                    {Isolation::kPerfIso, "perfiso"}};
  return kNames;
}

}  // namespace

template <class V>
void ScenarioSpec::Fields(V& v) {
  v.Field("workload.name", name);

  v.Field("workload.shape", load.kind);
  if (load.kind != LoadShapeKind::kPiecewise) {
    // Piecewise rates come entirely from the table.
    v.Field("workload.qps", load.qps);
  }
  switch (load.kind) {
    case LoadShapeKind::kConstant:
      break;
    case LoadShapeKind::kDiurnal:
      v.Field("workload.diurnal.period_sec", load.diurnal_period_sec);
      v.Field("workload.diurnal.trough_fraction", load.diurnal_trough_fraction);
      break;
    case LoadShapeKind::kRamp:
      v.Field("workload.ramp.end_qps", load.ramp_end_qps);
      v.Field("workload.ramp.duration_sec", load.ramp_duration_sec);
      break;
    case LoadShapeKind::kFlashCrowd:
      v.Field("workload.flash.spike_qps", load.flash_spike_qps);
      v.Field("workload.flash.start_sec", load.flash_start_sec);
      v.Field("workload.flash.duration_sec", load.flash_duration_sec);
      break;
    case LoadShapeKind::kSquareWave:
      v.Field("workload.square.burst_qps", load.square_burst_qps);
      v.Field("workload.square.period_sec", load.square_period_sec);
      v.Field("workload.square.duty", load.square_duty);
      break;
    case LoadShapeKind::kPiecewise:
      v.List("workload.piecewise", load.piecewise, [](auto& field, PiecewisePoint& point) {
        field(point.at_sec);
        field(point.qps);
      });
      break;
  }

  v.Field("workload.tenants.cpu_bully_threads", tenants.cpu_bully_threads);
  v.Field("workload.tenants.disk_bully", tenants.disk_bully);
  v.Field("workload.tenants.hdfs_client", tenants.hdfs_client);
  v.Field("workload.tenants.ml_training", tenants.ml_training);
  if (tenants.ml_training) {
    v.Field("workload.tenants.ml_worker_threads", tenants.ml_worker_threads);
  }

  v.Field("workload.topology.columns", topology.columns);
  if (topology.columns > 0) {
    v.Field("workload.topology.rows", topology.rows);
    v.Field("workload.topology.tla_machines", topology.tla_machines);
  }

  v.Field("workload.warmup_ns", warmup);
  v.Field("workload.measure_ns", measure);
  v.Field("workload.trace.count", trace_count);
  v.Field("workload.trace.seed", trace_seed);
  v.Field("workload.seeds.client", client_seed);
  v.Field("workload.seeds.node", node_seed);

  Isolation isolation = perfiso.has_value() ? Isolation::kPerfIso : Isolation::kNone;
  v.Field("workload.isolation", isolation);
  if (isolation == Isolation::kPerfIso) {
    PerfIsoConfig& config = perfiso.has_value() ? *perfiso : perfiso.emplace();
    v.Scoped("perfiso.", [&] { config.Fields(v); });
  }
  obs.Fields(v);
  fault.Fields(v);
}

ConfigMap ScenarioSpec::ToConfigMap() const {
  ConfigMap map;
  WriteFields(*this, &map);
  return map;
}

StatusOr<ScenarioSpec> ScenarioSpec::FromConfigMap(const ConfigMap& map) {
  auto spec = ReadFields<ScenarioSpec>(map);
  PERFISO_RETURN_IF_ERROR(spec.status());
  PERFISO_RETURN_IF_ERROR(spec->Validate());
  return spec;
}

Status ScenarioSpec::Validate() const {
  PERFISO_RETURN_IF_ERROR(load.Validate());
  if (tenants.cpu_bully_threads < 0) {
    return InvalidArgumentError("tenants.cpu_bully_threads must be >= 0");
  }
  if (tenants.ml_worker_threads <= 0) {
    return InvalidArgumentError("tenants.ml_worker_threads must be positive");
  }
  if (topology.columns < 0) {
    return InvalidArgumentError("topology.columns must be >= 0");
  }
  if (topology.columns > 0 && (topology.rows <= 0 || topology.tla_machines <= 0)) {
    return InvalidArgumentError("cluster topologies need rows and tla_machines >= 1");
  }
  if (sim_partitions != 0) {
    return InvalidArgumentError(
        "sim_partitions must be 0: partitioned simulation was removed");
  }
  if (warmup < 0) {
    return InvalidArgumentError("warmup must be >= 0");
  }
  if (measure <= 0) {
    return InvalidArgumentError("measure must be positive");
  }
  // Runs end at warmup + measure on the int64 ns clock.
  if (measure > std::numeric_limits<SimTime>::max() - warmup) {
    return InvalidArgumentError("warmup + measure overflows the ns clock");
  }
  if (trace_count == 0) {
    return InvalidArgumentError("trace_count must be positive");
  }
  if (trace_count > kMaxTraceCount) {
    return InvalidArgumentError("trace_count must be <= " + std::to_string(kMaxTraceCount));
  }
  PERFISO_RETURN_IF_ERROR(obs.Validate());
  // Fault nodes must fit the topology (single-box scenarios have one node).
  const int64_t nodes = topology.columns > 0 ? int64_t{topology.columns} * topology.rows : 1;
  if (nodes > std::numeric_limits<int>::max()) {
    return InvalidArgumentError("topology has more index nodes than an int can count");
  }
  PERFISO_RETURN_IF_ERROR(fault.Validate(static_cast<int>(nodes)));
  return OkStatus();
}

}  // namespace perfiso
