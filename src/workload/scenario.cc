#include "src/workload/scenario.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfiso {

const char* ClientKindName(ClientKind kind) {
  switch (kind) {
    case ClientKind::kOpenLoop:
      return "open_loop";
    case ClientKind::kClosedLoop:
      return "closed_loop";
  }
  return "?";
}

StatusOr<ClientKind> ParseClientKind(const std::string& name) {
  if (name == "open_loop") {
    return ClientKind::kOpenLoop;
  }
  if (name == "closed_loop") {
    return ClientKind::kClosedLoop;
  }
  return InvalidArgumentError("unknown client kind: " + name);
}

namespace {

constexpr char kWorkloadPrefix[] = "workload.";
constexpr char kPerfIsoPrefix[] = "perfiso.";
constexpr char kObsPrefix[] = "obs.";
constexpr char kFaultPrefix[] = "fault.";

std::string EncodePiecewise(const std::vector<PiecewisePoint>& points) {
  std::string out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += FormatDouble(points[i].at_sec);
    out += ':';
    out += FormatDouble(points[i].qps);
  }
  return out;
}

StatusOr<std::vector<PiecewisePoint>> DecodePiecewise(const std::string& text) {
  if (!text.empty() && text.back() == ',') {
    return InvalidArgumentError("piecewise table has a trailing comma");
  }
  std::vector<PiecewisePoint> points;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) {
      return InvalidArgumentError("piecewise table has an empty entry");
    }
    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return InvalidArgumentError("piecewise entry missing ':': " + item);
    }
    char* end = nullptr;
    PiecewisePoint point;
    point.at_sec = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + colon) {
      return InvalidArgumentError("malformed piecewise time: " + item);
    }
    const char* qps_begin = item.c_str() + colon + 1;
    point.qps = std::strtod(qps_begin, &end);
    if (end == qps_begin || *end != '\0') {
      return InvalidArgumentError("malformed piecewise qps: " + item);
    }
    points.push_back(point);
  }
  return points;
}

}  // namespace

ConfigMap ScenarioSpec::ToConfigMap() const {
  ConfigMap map;
  if (!name.empty()) {
    map.SetString("workload.name", name);
  }

  map.SetString("workload.shape", LoadShapeKindName(load.kind));
  if (load.kind != LoadShapeKind::kPiecewise) {
    // Piecewise rates come entirely from the table; emitting qps would let
    // the strict parser accept an inapplicable (silently ignored) knob.
    map.SetDouble("workload.qps", load.qps);
  }
  switch (load.kind) {
    case LoadShapeKind::kConstant:
      break;
    case LoadShapeKind::kDiurnal:
      map.SetDouble("workload.diurnal.period_sec", load.diurnal_period_sec);
      map.SetDouble("workload.diurnal.trough_fraction", load.diurnal_trough_fraction);
      break;
    case LoadShapeKind::kRamp:
      map.SetDouble("workload.ramp.end_qps", load.ramp_end_qps);
      map.SetDouble("workload.ramp.duration_sec", load.ramp_duration_sec);
      break;
    case LoadShapeKind::kFlashCrowd:
      map.SetDouble("workload.flash.spike_qps", load.flash_spike_qps);
      map.SetDouble("workload.flash.start_sec", load.flash_start_sec);
      map.SetDouble("workload.flash.duration_sec", load.flash_duration_sec);
      break;
    case LoadShapeKind::kSquareWave:
      map.SetDouble("workload.square.burst_qps", load.square_burst_qps);
      map.SetDouble("workload.square.period_sec", load.square_period_sec);
      map.SetDouble("workload.square.duty", load.square_duty);
      break;
    case LoadShapeKind::kPiecewise:
      map.SetString("workload.piecewise", EncodePiecewise(load.piecewise));
      break;
  }

  map.SetString("workload.client", ClientKindName(client));
  if (client == ClientKind::kClosedLoop) {
    map.SetInt("workload.closed.outstanding", closed.outstanding);
    map.SetInt("workload.closed.think_time_ns", closed.think_time);
  }

  map.SetInt("workload.tenants.cpu_bully_threads", tenants.cpu_bully_threads);
  map.SetBool("workload.tenants.disk_bully", tenants.disk_bully);
  map.SetBool("workload.tenants.hdfs_client", tenants.hdfs_client);
  map.SetBool("workload.tenants.ml_training", tenants.ml_training);
  if (tenants.ml_training) {
    map.SetInt("workload.tenants.ml_worker_threads", tenants.ml_worker_threads);
  }

  map.SetInt("workload.topology.columns", topology.columns);
  if (topology.columns > 0) {
    map.SetInt("workload.topology.rows", topology.rows);
    map.SetInt("workload.topology.tla_machines", topology.tla_machines);
  }

  map.SetInt("workload.warmup_ns", warmup);
  map.SetInt("workload.measure_ns", measure);
  map.SetInt("workload.trace.count", static_cast<int64_t>(trace_count));
  map.SetInt("workload.trace.seed", static_cast<int64_t>(trace_seed));
  map.SetInt("workload.seeds.client", static_cast<int64_t>(client_seed));
  map.SetInt("workload.seeds.node", static_cast<int64_t>(node_seed));

  map.SetString("workload.isolation", perfiso.has_value() ? "perfiso" : "none");
  if (perfiso.has_value()) {
    const ConfigMap perfiso_map = perfiso->ToConfigMap();
    for (const auto& [key, value] : perfiso_map.entries()) {
      map.SetString(kPerfIsoPrefix + key, value);
    }
  }
  obs.AppendToConfigMap(&map);
  fault.AppendToConfigMap(&map);
  return map;
}

StatusOr<ScenarioSpec> ScenarioSpec::FromConfigMap(const ConfigMap& map) {
  ScenarioSpec spec;

  // Split namespaces up front; anything outside workload./perfiso./obs./
  // fault. is foreign.
  ConfigMap perfiso_map;
  for (const auto& [key, value] : map.entries()) {
    if (key.rfind(kPerfIsoPrefix, 0) == 0) {
      perfiso_map.SetString(key.substr(sizeof(kPerfIsoPrefix) - 1), value);
    } else if (key.rfind(kWorkloadPrefix, 0) != 0 && key.rfind(kObsPrefix, 0) != 0 &&
               key.rfind(kFaultPrefix, 0) != 0) {
      return InvalidArgumentError(
          "scenario key outside workload./perfiso./obs./fault.: " + key);
    }
  }

  auto name = map.GetString("workload.name", "");
  PERFISO_RETURN_IF_ERROR(name.status());
  spec.name = *name;

  auto shape_name = map.GetString("workload.shape", LoadShapeKindName(spec.load.kind));
  PERFISO_RETURN_IF_ERROR(shape_name.status());
  auto shape = ParseLoadShapeKind(*shape_name);
  PERFISO_RETURN_IF_ERROR(shape.status());
  spec.load.kind = *shape;

  auto qps = map.GetDouble("workload.qps", spec.load.qps);
  PERFISO_RETURN_IF_ERROR(qps.status());
  spec.load.qps = *qps;

  auto period = map.GetDouble("workload.diurnal.period_sec", spec.load.diurnal_period_sec);
  PERFISO_RETURN_IF_ERROR(period.status());
  spec.load.diurnal_period_sec = *period;
  auto trough =
      map.GetDouble("workload.diurnal.trough_fraction", spec.load.diurnal_trough_fraction);
  PERFISO_RETURN_IF_ERROR(trough.status());
  spec.load.diurnal_trough_fraction = *trough;

  auto ramp_end = map.GetDouble("workload.ramp.end_qps", spec.load.ramp_end_qps);
  PERFISO_RETURN_IF_ERROR(ramp_end.status());
  spec.load.ramp_end_qps = *ramp_end;
  auto ramp_dur = map.GetDouble("workload.ramp.duration_sec", spec.load.ramp_duration_sec);
  PERFISO_RETURN_IF_ERROR(ramp_dur.status());
  spec.load.ramp_duration_sec = *ramp_dur;

  auto spike = map.GetDouble("workload.flash.spike_qps", spec.load.flash_spike_qps);
  PERFISO_RETURN_IF_ERROR(spike.status());
  spec.load.flash_spike_qps = *spike;
  auto flash_start = map.GetDouble("workload.flash.start_sec", spec.load.flash_start_sec);
  PERFISO_RETURN_IF_ERROR(flash_start.status());
  spec.load.flash_start_sec = *flash_start;
  auto flash_dur = map.GetDouble("workload.flash.duration_sec", spec.load.flash_duration_sec);
  PERFISO_RETURN_IF_ERROR(flash_dur.status());
  spec.load.flash_duration_sec = *flash_dur;

  auto burst = map.GetDouble("workload.square.burst_qps", spec.load.square_burst_qps);
  PERFISO_RETURN_IF_ERROR(burst.status());
  spec.load.square_burst_qps = *burst;
  auto square_period = map.GetDouble("workload.square.period_sec", spec.load.square_period_sec);
  PERFISO_RETURN_IF_ERROR(square_period.status());
  spec.load.square_period_sec = *square_period;
  auto duty = map.GetDouble("workload.square.duty", spec.load.square_duty);
  PERFISO_RETURN_IF_ERROR(duty.status());
  spec.load.square_duty = *duty;

  auto piecewise = map.GetString("workload.piecewise", "");
  PERFISO_RETURN_IF_ERROR(piecewise.status());
  if (!piecewise->empty()) {
    auto points = DecodePiecewise(*piecewise);
    PERFISO_RETURN_IF_ERROR(points.status());
    spec.load.piecewise = *points;
  } else if (map.Has("workload.piecewise")) {
    return InvalidArgumentError("workload.piecewise must not be empty");
  }

  auto client_name = map.GetString("workload.client", ClientKindName(spec.client));
  PERFISO_RETURN_IF_ERROR(client_name.status());
  auto client = ParseClientKind(*client_name);
  PERFISO_RETURN_IF_ERROR(client.status());
  spec.client = *client;

  auto outstanding = map.GetInt("workload.closed.outstanding", spec.closed.outstanding);
  PERFISO_RETURN_IF_ERROR(outstanding.status());
  spec.closed.outstanding = static_cast<int>(*outstanding);
  auto think = map.GetInt("workload.closed.think_time_ns", spec.closed.think_time);
  PERFISO_RETURN_IF_ERROR(think.status());
  spec.closed.think_time = *think;

  auto bully = map.GetInt("workload.tenants.cpu_bully_threads", spec.tenants.cpu_bully_threads);
  PERFISO_RETURN_IF_ERROR(bully.status());
  spec.tenants.cpu_bully_threads = static_cast<int>(*bully);
  auto disk = map.GetBool("workload.tenants.disk_bully", spec.tenants.disk_bully);
  PERFISO_RETURN_IF_ERROR(disk.status());
  spec.tenants.disk_bully = *disk;
  auto hdfs = map.GetBool("workload.tenants.hdfs_client", spec.tenants.hdfs_client);
  PERFISO_RETURN_IF_ERROR(hdfs.status());
  spec.tenants.hdfs_client = *hdfs;
  auto ml = map.GetBool("workload.tenants.ml_training", spec.tenants.ml_training);
  PERFISO_RETURN_IF_ERROR(ml.status());
  spec.tenants.ml_training = *ml;
  auto ml_threads =
      map.GetInt("workload.tenants.ml_worker_threads", spec.tenants.ml_worker_threads);
  PERFISO_RETURN_IF_ERROR(ml_threads.status());
  spec.tenants.ml_worker_threads = static_cast<int>(*ml_threads);

  auto columns = map.GetInt("workload.topology.columns", spec.topology.columns);
  PERFISO_RETURN_IF_ERROR(columns.status());
  spec.topology.columns = static_cast<int>(*columns);
  auto rows = map.GetInt("workload.topology.rows", spec.topology.rows);
  PERFISO_RETURN_IF_ERROR(rows.status());
  spec.topology.rows = static_cast<int>(*rows);
  auto tlas = map.GetInt("workload.topology.tla_machines", spec.topology.tla_machines);
  PERFISO_RETURN_IF_ERROR(tlas.status());
  spec.topology.tla_machines = static_cast<int>(*tlas);

  auto warmup = map.GetInt("workload.warmup_ns", spec.warmup);
  PERFISO_RETURN_IF_ERROR(warmup.status());
  spec.warmup = *warmup;
  auto measure = map.GetInt("workload.measure_ns", spec.measure);
  PERFISO_RETURN_IF_ERROR(measure.status());
  spec.measure = *measure;

  auto trace_count = map.GetInt("workload.trace.count", static_cast<int64_t>(spec.trace_count));
  PERFISO_RETURN_IF_ERROR(trace_count.status());
  if (*trace_count <= 0) {
    return InvalidArgumentError("workload.trace.count must be positive");
  }
  spec.trace_count = static_cast<size_t>(*trace_count);
  auto trace_seed = map.GetInt("workload.trace.seed", static_cast<int64_t>(spec.trace_seed));
  PERFISO_RETURN_IF_ERROR(trace_seed.status());
  spec.trace_seed = static_cast<uint64_t>(*trace_seed);
  auto client_seed = map.GetInt("workload.seeds.client", static_cast<int64_t>(spec.client_seed));
  PERFISO_RETURN_IF_ERROR(client_seed.status());
  spec.client_seed = static_cast<uint64_t>(*client_seed);
  auto node_seed = map.GetInt("workload.seeds.node", static_cast<int64_t>(spec.node_seed));
  PERFISO_RETURN_IF_ERROR(node_seed.status());
  spec.node_seed = static_cast<uint64_t>(*node_seed);

  auto isolation = map.GetString("workload.isolation", "none");
  PERFISO_RETURN_IF_ERROR(isolation.status());
  if (*isolation == "perfiso") {
    auto config = PerfIsoConfig::FromConfigMapStrict(perfiso_map);
    PERFISO_RETURN_IF_ERROR(config.status());
    spec.perfiso = *config;
  } else if (*isolation != "none") {
    return InvalidArgumentError("workload.isolation must be none or perfiso, got " + *isolation);
  } else if (!perfiso_map.entries().empty()) {
    return InvalidArgumentError("perfiso.* keys present but workload.isolation = none");
  }

  auto obs = ObsSpec::FromConfigMap(map);
  PERFISO_RETURN_IF_ERROR(obs.status());
  spec.obs = *obs;

  auto fault = FaultPlan::FromConfigMap(map);
  PERFISO_RETURN_IF_ERROR(fault.status());
  spec.fault = *fault;

  PERFISO_RETURN_IF_ERROR(spec.Validate());

  // Unknown-key rejection: re-serialize the parsed spec and require every
  // input key to appear. This catches both typos (workload.flash.spikeqps)
  // and knobs inapplicable to the active shape/client (a ramp key on a
  // constant scenario) — either would otherwise run silently with defaults.
  const ConfigMap canonical = spec.ToConfigMap();
  for (const auto& [key, value] : map.entries()) {
    if (!canonical.Has(key)) {
      return InvalidArgumentError("unknown or inapplicable scenario key: " + key);
    }
  }
  return spec;
}

Status ScenarioSpec::Validate() const {
  PERFISO_RETURN_IF_ERROR(load.Validate());
  if (closed.outstanding <= 0) {
    return InvalidArgumentError("closed.outstanding must be positive");
  }
  if (closed.think_time < 0) {
    return InvalidArgumentError("closed.think_time must be >= 0");
  }
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
  if (trace_count == 0) {
    return InvalidArgumentError("trace_count must be positive");
  }
  // Fault nodes must fit the topology (single-box scenarios have one node).
  const int fault_nodes = topology.columns > 0 ? topology.columns * topology.rows : 1;
  PERFISO_RETURN_IF_ERROR(fault.Validate(fault_nodes));
  return OkStatus();
}

}  // namespace perfiso
