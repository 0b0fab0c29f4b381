#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/invariant_checker.h"
#include "src/obs/obs.h"
#include "src/obs/trace_export.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {
namespace bench {

namespace {

struct ReportRowData {
  std::string label;
  std::vector<std::pair<std::string, double>> metrics;
};

struct Report {
  std::string name;
  std::vector<ReportRowData> rows;
  bool written = false;
};

Report* ActiveReport() {
  static Report report;
  return &report;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

}  // namespace

std::string BenchOutPath(const std::string& filename) {
  const char* out_dir = std::getenv("PERFISO_BENCH_OUT");
  if (out_dir != nullptr && out_dir[0] != '\0') {
    return std::string(out_dir) + "/" + filename;
  }
  return filename;
}

void StartReport(const std::string& bench_name) {
  Report* report = ActiveReport();
  report->name = bench_name;
  // Benches return from main() through several paths; serializing at exit
  // keeps the mains free of bookkeeping.
  std::atexit([] { FinishReport(); });
}

void ReportRow(const std::string& label,
               const std::vector<std::pair<std::string, double>>& metrics) {
  ActiveReport()->rows.push_back(ReportRowData{label, metrics});
}

void RecordRow(const std::string& label, const SingleBoxResult& r) {
  ReportRow(label, {
                       {"p50_ms", r.p50_ms},
                       {"p95_ms", r.p95_ms},
                       {"p99_ms", r.p99_ms},
                       {"mean_ms", r.mean_ms},
                       {"drop_fraction", r.drop_fraction},
                       {"primary_util", r.primary_util},
                       {"secondary_util", r.secondary_util},
                       {"os_util", r.os_util},
                       {"idle_fraction", r.idle_fraction},
                       {"secondary_progress_core_s", r.secondary_progress},
                       {"hedges", static_cast<double>(r.hedges)},
                       {"queries", static_cast<double>(r.queries)},
                       {"coverage_mean", r.coverage_mean},
                       {"degraded", static_cast<double>(r.degraded)},
                       {"retries", static_cast<double>(r.retries)},
                       {"dropped_crash", static_cast<double>(r.dropped_crash)},
                       {"faults_injected", static_cast<double>(r.faults_injected)},
                   });
}

void FinishReport() {
  Report* report = ActiveReport();
  if (report->written || report->name.empty()) {
    return;
  }
  report->written = true;
  const std::string path = BenchOutPath("BENCH_" + report->name + ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": %.6g,\n  \"rows\": [",
               JsonEscape(report->name).c_str(), BenchScale());
  for (size_t i = 0; i < report->rows.size(); ++i) {
    const ReportRowData& row = report->rows[i];
    std::fprintf(f, "%s\n    {\"label\": \"%s\", \"metrics\": {", i == 0 ? "" : ",",
                 JsonEscape(row.label).c_str());
    for (size_t m = 0; m < row.metrics.size(); ++m) {
      std::fprintf(f, "%s\"%s\": %.9g", m == 0 ? "" : ", ",
                   JsonEscape(row.metrics[m].first).c_str(), row.metrics[m].second);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), report->rows.size());
}

double BenchScale() {
  const char* env = std::getenv("PERFISO_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double scale = std::atof(env);
  return std::clamp(scale > 0 ? scale : 1.0, 0.05, 100.0);
}

SimDuration ScaledMeasure(const ScenarioSpec& scenario) {
  // A validated spec's warmup + measure fits the ns clock; a scale above 1
  // must not push it (or the double -> int64 cast) past the end.
  const SimDuration longest = std::numeric_limits<SimTime>::max() - scenario.warmup;
  const double scaled = static_cast<double>(scenario.measure) * BenchScale();
  if (!(scaled < static_cast<double>(longest))) {
    return longest;
  }
  return std::min(longest, std::max<SimDuration>(kSecond, static_cast<SimDuration>(scaled)));
}

ScenarioSpec ScaleScenarioForBench(const ScenarioSpec& scenario) {
  ScenarioSpec scaled = scenario;
  scaled.measure = ScaledMeasure(scenario);
  if (scaled.measure == scenario.measure) {
    return scaled;  // scale 1 (or the 1 s floor equals the spec): identity
  }
  const double factor =
      static_cast<double>(scaled.measure) / static_cast<double>(scenario.measure);
  const double warmup_sec = ToSeconds(scenario.warmup);
  // Absolute shape times keep their position relative to the measurement
  // window; the (unscaled) warmup region maps to itself.
  const auto remap = [factor, warmup_sec](double t_sec) {
    return t_sec <= warmup_sec ? t_sec : warmup_sec + (t_sec - warmup_sec) * factor;
  };
  switch (scaled.load.kind) {
    case LoadShapeKind::kConstant:
      break;
    case LoadShapeKind::kDiurnal:
      scaled.load.diurnal_period_sec *= factor;
      break;
    case LoadShapeKind::kRamp:
      // The ramp is a one-shot feature like the flash window: its end must
      // keep its position relative to the measurement window, not compress
      // into the unscaled warmup.
      scaled.load.ramp_duration_sec = remap(scaled.load.ramp_duration_sec);
      break;
    case LoadShapeKind::kFlashCrowd:
      scaled.load.flash_start_sec = remap(scaled.load.flash_start_sec);
      scaled.load.flash_duration_sec *= factor;
      break;
    case LoadShapeKind::kSquareWave:
      scaled.load.square_period_sec *= factor;
      break;
    case LoadShapeKind::kPiecewise:
      for (PiecewisePoint& point : scaled.load.piecewise) {
        point.at_sec = remap(point.at_sec);
      }
      break;
  }
  // Fault events are one-shot features like the flash window: remap both
  // endpoints so a window keeps its position *and* its overlap with the
  // measurement window at any scale.
  for (FaultEvent& event : scaled.fault.events) {
    const double end_sec = remap(event.at_sec + event.duration_sec);
    event.at_sec = remap(event.at_sec);
    event.duration_sec = std::max(end_sec - event.at_sec, 1e-3);
  }
  return scaled;
}

namespace {

// The one place a spec's tenants + isolation attach to a rig; single-box and
// cluster runs of the same spec must not diverge.
void StartScenarioOnRig(IndexNodeRig* rig, const ScenarioSpec& scenario) {
  rig->StartTenants(scenario.tenants);
  if (scenario.perfiso.has_value()) {
    Status status = rig->StartPerfIso(*scenario.perfiso);
    if (!status.ok()) {
      std::fprintf(stderr, "PerfIso start failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
}

}  // namespace

std::unique_ptr<IndexNodeRig> MakeSingleBoxRig(Simulator* sim, const ScenarioSpec& scenario,
                                               const IndexNodeOptions& node_options) {
  IndexNodeOptions node = node_options;
  node.seed = scenario.node_seed;
  auto rig = std::make_unique<IndexNodeRig>(sim, node, "m0");
  StartScenarioOnRig(rig.get(), scenario);
  return rig;
}

int BenchThreads() {
  // Read each call (not cached): determinism tests flip the variable at
  // runtime to compare parallel and sequential executions.
  const char* env = std::getenv("PERFISO_BENCH_THREADS");
  if (env != nullptr && env[0] != '\0') {
    const int threads = std::atoi(env);
    if (threads > 0) {
      return std::min(threads, 256);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<SingleBoxResult> RunScenarios(const std::vector<ScenarioSpec>& scenarios) {
  std::vector<std::function<SingleBoxResult()>> jobs;
  jobs.reserve(scenarios.size());
  for (const ScenarioSpec& scenario : scenarios) {
    jobs.emplace_back([scenario] { return RunSingleBox(scenario); });
  }
  return RunParallel(std::move(jobs));
}

ScenarioSpec WithBenchObs(ScenarioSpec spec) {
  spec.obs.enabled = true;
  spec.obs.sampling = TraceSampling::kSlowestK;
  spec.obs.slowest_k = 128;
  return spec;
}

void WriteObsArtifacts(const std::string& name, const ObsArtifacts& obs) {
  if (!obs.enabled) {
    return;
  }
  const std::string trace_path = BenchOutPath("TRACE_" + name + ".json");
  const std::string metrics_path = BenchOutPath("METRICS_" + name + ".json");
  WriteTextFile(trace_path, obs.trace_json);
  WriteTextFile(metrics_path, obs.metrics_json);
  std::printf("wrote %s + %s (load the trace at ui.perfetto.dev)\n", trace_path.c_str(),
              metrics_path.c_str());
  if (!obs.attribution.empty()) {
    std::printf("\ntail-latency attribution of the traced run:\n%s", obs.attribution.c_str());
  }
}

SingleBoxResult RunSingleBox(const ScenarioSpec& input, const IndexNodeOptions& node_options,
                             ObsArtifacts* obs) {
  if (Status status = input.Validate(); !status.ok()) {
    std::fprintf(stderr, "invalid scenario %s: %s\n", input.name.c_str(),
                 status.ToString().c_str());
    std::abort();
  }
  if (input.topology.columns != 0) {
    std::fprintf(stderr, "scenario %s is a cluster spec; RunSingleBox needs columns == 0\n",
                 input.name.c_str());
    std::abort();
  }
  // Compress the whole timeline — window *and* shape times — to the bench
  // scale, so a smoke run still measures the spike/bursts/full period.
  const ScenarioSpec scenario = ScaleScenarioForBench(input);

  Simulator sim;
  const std::unique_ptr<IndexNodeRig> rig_ptr = MakeSingleBoxRig(&sim, scenario, node_options);
  IndexNodeRig& rig = *rig_ptr;

  // Observability: one context per run, destroyed before the rig it probes.
  // The tracer is passive, so results below are identical with or without it.
  std::unique_ptr<ObsContext> obs_ctx;
  HistogramMetric* latency_hist = nullptr;
  int32_t client_track = Tracer::kNoTrack;
  if (scenario.obs.enabled) {
    obs_ctx = std::make_unique<ObsContext>(scenario.obs);
    rig.EnableTracing(&obs_ctx->tracer);
    const int client_pid = obs_ctx->tracer.RegisterProcess("client");
    client_track = obs_ctx->tracer.RegisterTrack(client_pid, "arrivals");
    latency_hist = obs_ctx->registry.AddHistogram("indexserve.latency_ms");
    obs_ctx->registry.AddProbe("indexserve.inflight", [&rig] {
      return static_cast<double>(rig.server().inflight());
    });
    obs_ctx->registry.AddProbe("indexserve.completed", [&rig] {
      return static_cast<double>(rig.server().stats().completed);
    });
    obs_ctx->registry.AddProbe("indexserve.dropped", [&rig] {
      return static_cast<double>(rig.server().stats().TotalDropped());
    });
    obs_ctx->registry.AddProbe("indexserve.hedges", [&rig] {
      return static_cast<double>(rig.server().stats().hedges_issued);
    });
    obs_ctx->registry.AddProbe("machine.secondary_core_s",
                               [&rig] { return rig.SecondaryProgress(); });
    obs_ctx->StartSampling(&sim, scenario.warmup);
  }

  // Fault injection: disabled plans construct nothing, so a fault-free run is
  // bit-identical to one built before the subsystem existed. The injector is
  // declared after the rig and owns its event handles, so teardown order is
  // safe even when the plan outlives the measurement window.
  std::unique_ptr<FaultInjector> injector;
  if (scenario.fault.enabled) {
    injector = std::make_unique<FaultInjector>(&sim, scenario.fault, &rig);
    if (obs_ctx != nullptr) {
      injector->EnableTracing(&obs_ctx->tracer);
    }
    injector->Arm();
  }

  Rng trace_rng(scenario.trace_seed);
  auto trace = GenerateTrace(TraceSpec{}, scenario.trace_count, &trace_rng);

  const SimDuration measure = scenario.measure;  // already scaled

  // The client lives on the stack; the simulator drains inside this scope.
  OpenLoopClient client(&sim, std::move(trace), scenario.load, Rng(scenario.client_seed),
                        [&rig, latency_hist](const QueryWork& work, SimTime) {
                          if (latency_hist == nullptr) {
                            rig.server().SubmitQuery(work);
                            return;
                          }
                          rig.server().SubmitQuery(work, [latency_hist](const QueryResult& r) {
                            if (!r.dropped) {
                              latency_hist->Observe(r.latency_ms);
                            }
                          });
                        });
  if (obs_ctx != nullptr) {
    client.SetTracer(&obs_ctx->tracer, client_track);
  }
  client.Run(0, scenario.warmup + measure);

  sim.RunUntil(scenario.warmup);
  rig.server().ResetStats();
  const auto snap = rig.SnapshotUtilization();
  const double progress_then = rig.SecondaryProgress();
  sim.RunUntil(scenario.warmup + measure);

  SingleBoxResult result;
  const auto& stats = rig.server().stats();
  result.p50_ms = stats.latency_ms.P50();
  result.p95_ms = stats.latency_ms.P95();
  result.p99_ms = stats.latency_ms.P99();
  result.mean_ms = stats.latency_ms.Mean();
  result.drop_fraction = stats.DropFraction();
  result.primary_util = rig.UtilizationSince(snap, TenantClass::kPrimary);
  result.secondary_util = rig.UtilizationSince(snap, TenantClass::kSecondary);
  result.os_util = rig.UtilizationSince(snap, TenantClass::kOs);
  result.idle_fraction = rig.IdleFractionSince(snap);
  result.secondary_progress = rig.SecondaryProgress() - progress_then;
  result.hedges = stats.hedges_issued;
  result.queries = stats.submitted;
  result.coverage_mean = stats.coverage.Count() > 0 ? stats.coverage.Mean() : 0.0;
  result.degraded = stats.completed_degraded;
  result.retries = stats.retries_issued;
  result.dropped_crash = stats.dropped_crash;
  result.faults_injected = injector != nullptr ? injector->stats().injected : 0;
  result.latency_digest = stats.latency_ms.Digest();

  // Conservation/budget/coverage invariants must hold at the end of every
  // bench run, faults or not; the checker only reads, so this is
  // digest-neutral. Aborting keeps bad rows out of BENCH_*.json.
  InvariantReport invariants;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/false, &invariants);
  if (!invariants.ok()) {
    std::fprintf(stderr, "invariant violations in scenario %s:\n%s", input.name.c_str(),
                 invariants.ToString().c_str());
    std::abort();
  }

  if (obs_ctx != nullptr) {
    obs_ctx->sampler->SampleNow(sim.Now());
    if (obs != nullptr) {
      obs->enabled = true;
      obs->trace_json = ExportChromeTrace(obs_ctx->tracer);
      obs->metrics_json = obs_ctx->sampler->ToJson();
      obs->attribution = FormatP99AttributionTable(obs_ctx->tracer);
    }
  }
  return result;
}

// --- Scenario registry --------------------------------------------------------

namespace {

ScenarioSpec BaseScenario(const char* name, LoadShapeSpec load) {
  ScenarioSpec spec;
  spec.name = name;
  spec.load = load;
  return spec;
}

PerfIsoConfig BlindConfig(int buffer_cores = 8) {
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = buffer_cores;
  return config;
}

// The canonical named scenarios. Kept in one place so benches, tests, and the
// golden-digest regressions all agree on what e.g. "diurnal-blind" means;
// changing a spec here is a results-affecting change and will trip the golden
// tests (see the update procedure in tests/bench_determinism_test.cc).
std::vector<ScenarioSpec> BuildRegistry() {
  std::vector<ScenarioSpec> registry;

  registry.push_back(BaseScenario("standalone", ConstantLoad(2000)));

  {
    ScenarioSpec spec = BaseScenario("no-isolation-high", ConstantLoad(2000));
    spec.tenants.cpu_bully_threads = 48;
    registry.push_back(spec);
  }
  {
    ScenarioSpec spec = BaseScenario("blind-high", ConstantLoad(2000));
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    registry.push_back(spec);
  }

  // The diurnal day (Fig. 2): one full period over the measurement window,
  // peak at the paper's high rate. With trough_fraction 0.1 the daily average
  // is 0.55x peak — ~21% average CPU on our machine model, the paper's
  // headline idle number.
  {
    ScenarioSpec spec = BaseScenario("diurnal-no-isolation", DiurnalLoad(4000, 24));
    spec.measure = 24 * kSecond;
    spec.tenants.cpu_bully_threads = 48;
    registry.push_back(spec);
  }
  {
    ScenarioSpec spec = BaseScenario("diurnal-blind", DiurnalLoad(4000, 24));
    spec.measure = 24 * kSecond;
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    registry.push_back(spec);
  }

  // Flash crowd (§3.1's sudden burst): 1,500 QPS background jumping to 6,000
  // for one second mid-window. The idle-core buffer is what absorbs it.
  {
    ScenarioSpec spec =
        BaseScenario("flash-crowd-standalone", FlashCrowdLoad(1500, 6000, 3, 1));
    registry.push_back(spec);
  }
  {
    ScenarioSpec spec =
        BaseScenario("flash-crowd-no-isolation", FlashCrowdLoad(1500, 6000, 3, 1));
    spec.tenants.cpu_bully_threads = 48;
    registry.push_back(spec);
  }
  {
    ScenarioSpec spec = BaseScenario("flash-crowd-blind", FlashCrowdLoad(1500, 6000, 3, 1));
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    registry.push_back(spec);
  }

  // Burst train: square wave between 1,000 and 4,000 QPS, 25% duty.
  {
    ScenarioSpec spec = BaseScenario("burst-train-blind", ConstantLoad(1000));
    spec.load.kind = LoadShapeKind::kSquareWave;
    spec.load.square_burst_qps = 4000;
    spec.load.square_period_sec = 2;
    spec.load.square_duty = 0.25;
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    registry.push_back(spec);
  }

  // Linear ramp into saturation under blind isolation.
  {
    ScenarioSpec spec = BaseScenario("ramp-blind", ConstantLoad(500));
    spec.load.kind = LoadShapeKind::kRamp;
    spec.load.ramp_end_qps = 4000;
    spec.load.ramp_duration_sec = 8;
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    registry.push_back(spec);
  }

  // Fault-injection rows (DESIGN.md §8): the standard colocation with a
  // declared fault window mid-measurement. "fault-crash-restart" kills the
  // serving process for two seconds (in-flight queries drop, storage I/O
  // cancels, the node rejoins cold); the disk and straggler rows degrade
  // rather than kill, which blind isolation's buffer should largely absorb.
  {
    ScenarioSpec spec = BaseScenario("fault-crash-restart", ConstantLoad(2000));
    spec.fault.enabled = true;
    spec.fault.events.push_back(
        FaultEvent{FaultKind::kNodeCrash, /*node=*/0, /*at_sec=*/3.0, /*duration_sec=*/2.0,
                   /*severity=*/1.0});
    registry.push_back(spec);
  }
  {
    ScenarioSpec spec = BaseScenario("fault-disk-degrade-blind", ConstantLoad(2000));
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    spec.fault.enabled = true;
    spec.fault.events.push_back(
        FaultEvent{FaultKind::kDiskDegrade, /*node=*/0, /*at_sec=*/3.0, /*duration_sec=*/2.0,
                   /*severity=*/40.0});
    registry.push_back(spec);
  }
  {
    ScenarioSpec spec = BaseScenario("fault-straggler-blind", ConstantLoad(2000));
    spec.tenants.cpu_bully_threads = 48;
    spec.perfiso = BlindConfig();
    spec.fault.enabled = true;
    spec.fault.events.push_back(
        FaultEvent{FaultKind::kCpuStraggler, /*node=*/0, /*at_sec=*/3.0, /*duration_sec=*/2.0,
                   /*severity=*/16});
    registry.push_back(spec);
  }

  // Fig. 10's production colocation, as a cluster spec: diurnal load over a
  // 6x2 sampled cluster, HDFS + ML training as the secondary, blind isolation
  // plus the ML job's disk cap.
  {
    ScenarioSpec spec = BaseScenario("fig10-production", DiurnalLoad(7600, 60, 0.37));
    spec.measure = 60 * kSecond;
    spec.topology = TopologySpec{6, 2, 4};
    spec.tenants.hdfs_client = true;
    spec.tenants.ml_training = true;
    spec.tenants.ml_worker_threads = 20;
    PerfIsoConfig config = BlindConfig();
    config.io_limits.push_back(
        IoOwnerLimit{kIoOwnerMlTraining, 100e6, 0, /*priority=*/2, 1.0, 0});
    spec.perfiso = config;
    registry.push_back(spec);
  }

  return registry;
}

const std::vector<ScenarioSpec>& Registry() {
  static const std::vector<ScenarioSpec>* registry =
      new std::vector<ScenarioSpec>(BuildRegistry());
  return *registry;
}

}  // namespace

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const ScenarioSpec& spec : Registry()) {
    names.push_back(spec.name);
  }
  return names;
}

StatusOr<ScenarioSpec> FindScenario(const std::string& name) {
  for (const ScenarioSpec& spec : Registry()) {
    if (spec.name == name) {
      return spec;
    }
  }
  return NotFoundError("no scenario named " + name);
}

IndexNodeOptions ResilientNodeOptions() {
  IndexNodeOptions node;
  node.indexserve.chunk_retry.enabled = true;
  node.indexserve.chunk_retry.max_attempts = 3;
  node.indexserve.chunk_retry.timeout = FromMillis(10);
  node.indexserve.chunk_retry.backoff_base = FromMillis(2);
  node.indexserve.chunk_retry.backoff_cap = FromMillis(20);
  node.indexserve.degrade_deadline = FromMillis(30);
  node.indexserve.min_chunk_coverage = 0.5;
  return node;
}

ScenarioSpec MustFindScenario(const std::string& name) {
  auto spec = FindScenario(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::abort();
  }
  return *spec;
}

std::vector<SingleBoxResult> RunNamedScenarios(const std::vector<std::string>& names) {
  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(names.size());
  for (const std::string& name : names) {
    scenarios.push_back(MustFindScenario(name));
  }
  return RunScenarios(scenarios);
}

ClusterOptions MakeClusterOptions(const ScenarioSpec& scenario) {
  if (scenario.topology.columns <= 0) {
    std::fprintf(stderr, "scenario %s is single-box; MakeClusterOptions needs columns > 0\n",
                 scenario.name.c_str());
    std::abort();
  }
  ClusterOptions options;
  options.topology = ClusterTopology{scenario.topology.columns, scenario.topology.rows,
                                     scenario.topology.tla_machines};
  return options;
}

void ApplyScenarioTenants(Cluster* cluster, const ScenarioSpec& scenario) {
  cluster->ForEachIndexNode(
      [&scenario](IndexNodeRig& node) { StartScenarioOnRig(&node, scenario); });
}

ClusterRunResult RunClusterScenario(const ScenarioSpec& input) {
  if (Status status = input.Validate(); !status.ok()) {
    std::fprintf(stderr, "invalid scenario %s: %s\n", input.name.c_str(),
                 status.ToString().c_str());
    std::abort();
  }
  if (input.topology.columns <= 0) {
    std::fprintf(stderr, "scenario %s is single-box; RunClusterScenario needs columns > 0\n",
                 input.name.c_str());
    std::abort();
  }
  const ScenarioSpec scenario = ScaleScenarioForBench(input);
  const ClusterOptions options = MakeClusterOptions(scenario);

  Simulator sim;
  Cluster cluster(&sim, options);
  ApplyScenarioTenants(&cluster, scenario);

  std::unique_ptr<FaultInjector> injector;
  if (scenario.fault.enabled) {
    injector = std::make_unique<FaultInjector>(&sim, scenario.fault, &cluster);
    injector->Arm();
  }

  Rng trace_rng(scenario.trace_seed);
  auto trace = GenerateTrace(TraceSpec{}, scenario.trace_count, &trace_rng);
  const SimDuration measure = scenario.measure;  // already scaled

  OpenLoopClient client(&sim, std::move(trace), scenario.load, Rng(scenario.client_seed),
                        [&cluster](const QueryWork& work, SimTime) { cluster.SubmitQuery(work); });
  client.Run(0, scenario.warmup + measure);

  sim.RunUntil(scenario.warmup);
  cluster.ResetStats();
  const auto snaps = cluster.SnapshotAll();
  sim.RunUntil(scenario.warmup + measure);

  if (scenario.fault.enabled) {
    InvariantReport report;
    InvariantChecker::CheckCluster(cluster, /*expect_drained=*/false, &report);
    if (!report.ok()) {
      std::fprintf(stderr, "cluster invariant violations:\n%s", report.ToString().c_str());
      std::abort();
    }
  }

  ClusterRunResult result;
  result.leaf_digest = cluster.MergedLeafLatency().Digest();
  result.mla_digest = cluster.MlaLatency().Digest();
  result.tla_digest = cluster.TlaLatency().Digest();
  result.flow_digest = cluster.fabric().FlowLatencyMs(NetClass::kPrimary).Digest();
  result.completed = cluster.queries_completed();
  result.failed = cluster.queries_failed();
  result.degraded = cluster.queries_degraded();
  result.tla_p99_ms = cluster.TlaLatency().P99();
  result.tla_mean_ms = cluster.TlaLatency().Mean();
  result.mean_busy = cluster.MeanBusyFractionSince(snaps);
  result.faults_injected = injector != nullptr ? injector->stats().injected : 0;
  result.events_executed = sim.EventsExecuted();
  return result;
}

void PrintHeader(const std::string& title, const std::string& figure,
                 const std::string& paper_summary) {
  std::printf("================================================================================\n");
  std::printf("%s  [%s]\n", title.c_str(), figure.c_str());
  std::printf("paper: %s\n", paper_summary.c_str());
  std::printf("scale: %.2f (set PERFISO_BENCH_SCALE to change)\n", BenchScale());
  std::printf("================================================================================\n");
}

void PrintRowHeader() {
  std::printf("%-34s %8s %8s %8s %7s | %6s %6s %5s %6s | %10s\n", "scenario", "p50(ms)",
              "p95(ms)", "p99(ms)", "drop%", "prim%", "sec%", "os%", "idle%", "sec-prog");
}

void PrintRow(const std::string& label, const SingleBoxResult& result) {
  RecordRow(label, result);
  std::printf("%-34s %8.2f %8.2f %8.2f %6.1f%% | %5.1f%% %5.1f%% %4.1f%% %5.1f%% | %9.1fs\n",
              label.c_str(), result.p50_ms, result.p95_ms, result.p99_ms,
              result.drop_fraction * 100, result.primary_util * 100,
              result.secondary_util * 100, result.os_util * 100, result.idle_fraction * 100,
              result.secondary_progress);
}

void PrintPaperNote(const std::string& note) {
  std::printf("    paper: %s\n", note.c_str());
}

}  // namespace bench
}  // namespace perfiso
