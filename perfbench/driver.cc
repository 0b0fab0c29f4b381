// perfbench_driver: one repetition of one benchmark workload, in one process
// on one thread (perfbench/README.md).
//
//   perfbench_driver --workload box_day|box_io|cluster_day --seed N
//                    [--samples PATH]
//
// A repetition builds the workload from its spec, runs the simulated warmup
// (together: set-up), then runs the measurement window. It prints one JSON
// object: host timings, the simulated end-to-end results, per-layer counters
// read through each layer's public accessors, latency digests, and any
// invariant violation. With --samples, a SIGPROF sampler (sampler.h) runs for
// the whole repetition and its samples are written to PATH.
//
// A repetition follows bench::RunSingleBox / RunClusterScenario step for step,
// but times set-up and window apart and snapshots layer counters at the
// window's opening, which those functions do not expose. Everything the
// driver reads is a public accessor; it changes nothing in the simulation, so
// digests and counters are a pure function of (workload, seed).
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "latency.h"
#include "sampler.h"
#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/fault/invariant_checker.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/query_trace.h"
#include "src/workload/scenario.h"

namespace {

using namespace perfiso;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads ----------------------------------------------------------------

PerfIsoConfig BlindIsolation() {
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 8;
  return config;
}

// The paper's Fig. 2 / Fig. 5 setting: one diurnal day on one IndexServe box
// next to a 48-thread CPU bully under blind isolation.
ScenarioSpec BoxDay() { return bench::MustFindScenario("diurnal-blind"); }

// The same box and day with a disk-bound secondary instead: the DiskSPD-like
// bully plus the HDFS client under the static disk caps of §5.3.
ScenarioSpec BoxIo() {
  ScenarioSpec spec = bench::MustFindScenario("diurnal-blind");
  spec.name = "box-io";
  spec.tenants = TenantMixSpec{};
  spec.tenants.disk_bully = true;
  spec.tenants.hdfs_client = true;
  PerfIsoConfig config = BlindIsolation();
  config.io_limits = {
      IoOwnerLimit{kIoOwnerHdfsClient, 60e6, 0, /*priority=*/1, 1.0, 0},
      IoOwnerLimit{kIoOwnerHdfsReplication, 20e6, 0, /*priority=*/1, 1.0, 0},
      IoOwnerLimit{kIoOwnerDiskBully, 100e6, 20, /*priority=*/2, 1.0, 0},
  };
  spec.perfiso = config;
  return spec;
}

// The fig_cluster_scale setting on the sequential engine: 1,000 leaves (50
// rows x 20 columns) and 31 TLAs, 2,000 QPS peak, an 8-thread bully under
// blind isolation on every leaf. The day is compressed from fig_cluster_scale's
// 8 s to 1 s, and the warmup from 0.5 s to a quarter of that day, so a run
// fits about ten repetitions (perfbench/README.md).
ScenarioSpec ClusterDay() {
  ScenarioSpec spec;
  spec.name = "cluster-day";
  spec.load = DiurnalLoad(/*peak_qps=*/2000, /*period_sec=*/1, /*trough_fraction=*/0.25);
  spec.measure = kSecond;
  spec.warmup = kSecond / 4;
  spec.topology.columns = 20;
  spec.topology.rows = 50;
  spec.topology.tla_machines = 31;
  spec.tenants.cpu_bully_threads = 8;
  spec.perfiso = BlindIsolation();
  spec.trace_count = 20000;
  spec.sim_partitions = 0;
  return spec;
}

std::optional<ScenarioSpec> WorkloadSpec(const std::string& name, uint64_t seed) {
  std::optional<ScenarioSpec> spec;
  if (name == "box_day") {
    spec = BoxDay();
  } else if (name == "box_io") {
    spec = BoxIo();
  } else if (name == "cluster_day") {
    spec = ClusterDay();
  } else {
    return std::nullopt;
  }
  // Seed 0 keeps the specs' own seeds; other seeds shift all three streams.
  spec->trace_seed += seed;
  spec->client_seed += seed;
  spec->node_seed += seed;
  return spec;
}

// --- Results ------------------------------------------------------------------

// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Result {
  // Host timings (seconds) and memory: vary run to run.
  double setup_s = 0;
  double build_s = 0;
  double trace_s = 0;
  double warmup_s = 0;
  double wall_s = 0;
  // Read as the window closes, before the driver's own post-processing.
  double peak_rss_mb = 0;
  // Simulated results and counters: repeat exactly for a (workload, seed).
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, uint64_t>> digests;
  std::vector<std::string> violations;

  void Set(const std::string& name, double value) { values.emplace_back(name, value); }
};

// Per-machine counters snapshotted at the opening of the measurement window.
struct NodeSnapshot {
  IndexNodeRig::UtilizationSnapshot util;
  int64_t dispatches = 0;
  int64_t preemptions = 0;
  int64_t steals = 0;
  int64_t ssd_ops = 0;
  int64_t hdd_ops = 0;
  int64_t secondary_ops = 0;
  size_t primary_io_samples = 0;
  PerfIsoController::Stats perfiso;
  int64_t io_adjustments = 0;
};

int64_t SecondaryHddOps(IndexNodeRig& rig) {
  int64_t ops = 0;
  for (int owner : {kIoOwnerDiskBully, kIoOwnerHdfsClient, kIoOwnerHdfsReplication,
                    kIoOwnerMlTraining}) {
    ops += rig.hdd_volume().OwnerStats(owner).ops;
  }
  return ops;
}

const LatencyRecorder& PrimaryIoLatency(IndexNodeRig& rig) {
  return rig.ssd_scheduler().Stats(kIoOwnerIndexData).total_latency_us;
}

NodeSnapshot Snapshot(IndexNodeRig& rig) {
  NodeSnapshot s;
  s.util = rig.SnapshotUtilization();
  const SimMachine::Metrics& m = rig.machine().metrics();
  s.dispatches = m.dispatches;
  s.preemptions = m.preemptions;
  s.steals = m.steals;
  s.ssd_ops = rig.ssd_volume().CompletedOps();
  s.hdd_ops = rig.hdd_volume().CompletedOps();
  s.secondary_ops = SecondaryHddOps(rig);
  s.primary_io_samples = PrimaryIoLatency(rig).Count();
  if (rig.perfiso() != nullptr) {
    s.perfiso = rig.perfiso()->stats();
    if (rig.perfiso()->io_throttler() != nullptr) {
      s.io_adjustments = rig.perfiso()->io_throttler()->adjustments();
    }
  }
  return s;
}

// Sums the window deltas of every machine-local layer over `rigs`.
void RecordNodeLayers(const std::vector<IndexNodeRig*>& rigs,
                      const std::vector<NodeSnapshot>& before, Result* out) {
  double dispatches = 0, preemptions = 0, steals = 0;
  double ssd_ops = 0, hdd_ops = 0, secondary_ops = 0;
  double polls = 0, affinity = 0, io_polls = 0, rate_updates = 0, io_adjustments = 0;
  double queries = 0, hedges = 0, dropped = 0, log_stalls = 0;
  std::vector<double> primary_io;
  for (size_t i = 0; i < rigs.size(); ++i) {
    IndexNodeRig& rig = *rigs[i];
    const NodeSnapshot after = Snapshot(rig);
    const NodeSnapshot& b = before[i];
    dispatches += static_cast<double>(after.dispatches - b.dispatches);
    preemptions += static_cast<double>(after.preemptions - b.preemptions);
    steals += static_cast<double>(after.steals - b.steals);
    ssd_ops += static_cast<double>(after.ssd_ops - b.ssd_ops);
    hdd_ops += static_cast<double>(after.hdd_ops - b.hdd_ops);
    secondary_ops += static_cast<double>(after.secondary_ops - b.secondary_ops);
    polls += static_cast<double>(after.perfiso.polls - b.perfiso.polls);
    affinity += static_cast<double>(after.perfiso.affinity_updates - b.perfiso.affinity_updates);
    io_polls += static_cast<double>(after.perfiso.io_polls - b.perfiso.io_polls);
    rate_updates += static_cast<double>(after.perfiso.rate_updates - b.perfiso.rate_updates);
    io_adjustments += static_cast<double>(after.io_adjustments - b.io_adjustments);
    const IndexServer::Stats& stats = rig.server().stats();  // reset at window open
    queries += static_cast<double>(stats.submitted);
    hedges += static_cast<double>(stats.hedges_issued);
    dropped += static_cast<double>(stats.TotalDropped());
    log_stalls += static_cast<double>(stats.log_stalls);
    const std::vector<double>& io = PrimaryIoLatency(rig).samples();
    primary_io.insert(primary_io.end(),
                      io.begin() + static_cast<std::ptrdiff_t>(b.primary_io_samples), io.end());
  }
  out->Set("machine.dispatches", dispatches);
  out->Set("machine.preemptions", preemptions);
  out->Set("machine.steals", steals);
  out->Set("disk.ssd_ops", ssd_ops);
  out->Set("disk.hdd_ops", hdd_ops);
  out->Set("disk.secondary_ops", secondary_ops);
  out->Set("disk.primary_wait_p99_us",
           perfbench::PercentileCountingFailures(std::move(primary_io), 0, 99));
  out->Set("indexserve.queries", queries);
  out->Set("indexserve.hedges", hedges);
  out->Set("indexserve.dropped", dropped);
  out->Set("indexserve.log_stalls", log_stalls);
  out->Set("perfiso.polls", polls);
  out->Set("perfiso.affinity_updates", affinity);
  out->Set("perfiso.io_polls", io_polls);
  out->Set("perfiso.rate_updates", rate_updates);
  out->Set("perfiso.io_adjustments", io_adjustments);
}

void RecordEngine(const Simulator::Stats& before, const Simulator::Stats& after,
                  double wall_s, Result* out) {
  const double events = static_cast<double>(after.events_executed - before.events_executed);
  const double scheduled = static_cast<double>(after.events_scheduled - before.events_scheduled);
  const double cancelled = static_cast<double>(after.events_cancelled - before.events_cancelled);
  out->Set("sim.events", events);
  out->Set("sim.cancelled_frac", scheduled > 0 ? cancelled / scheduled : 0);
  out->Set("sim.wheel_cascades",
           static_cast<double>(after.wheel_cascades - before.wheel_cascades));
  out->Set("sim.overflow_pulls",
           static_cast<double>(after.overflow_pulls - before.overflow_pulls));
  out->Set("sim.callback_heap_allocs",
           static_cast<double>(after.callback_heap_allocs - before.callback_heap_allocs));
  out->Set("sim.ns_per_event", events > 0 ? wall_s * 1e9 / events : 0);
}

// The primary's end-to-end results: latency percentiles with failures ranked
// beyond every limit, and the share of submitted queries that did not fail.
void RecordPrimary(const LatencyRecorder& latency, int64_t submitted, int64_t failed,
                   Result* out) {
  out->Set("p50_ms", perfbench::PercentileCountingFailures(latency.samples(), failed, 50));
  out->Set("p99_ms", perfbench::PercentileCountingFailures(latency.samples(), failed, 99));
  out->Set("served_frac",
           submitted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(submitted)
                         : 0);
  out->Set("primary.submitted", static_cast<double>(submitted));
}

void CheckSpec(const ScenarioSpec& spec) {
  if (Status status = spec.Validate(); !status.ok()) {
    std::fprintf(stderr, "invalid workload spec %s: %s\n", spec.name.c_str(),
                 status.ToString().c_str());
    std::exit(2);
  }
}

Result RunBox(const ScenarioSpec& spec) {
  Result out;
  const Clock::time_point start = Clock::now();
  CheckSpec(spec);
  Simulator sim;
  const std::unique_ptr<IndexNodeRig> rig = bench::MakeSingleBoxRig(&sim, spec);
  out.build_s = SecondsSince(start);

  Clock::time_point phase = Clock::now();
  Rng trace_rng(spec.trace_seed);
  std::vector<QueryWork> trace = GenerateTrace(TraceSpec{}, spec.trace_count, &trace_rng);
  out.trace_s = SecondsSince(phase);

  IndexNodeRig* node = rig.get();
  OpenLoopClient client(&sim, std::move(trace), spec.load, Rng(spec.client_seed),
                        [node](const QueryWork& work, SimTime) {
                          node->server().SubmitQuery(work);
                        });
  client.Run(0, spec.warmup + spec.measure);
  phase = Clock::now();
  sim.RunUntil(spec.warmup);
  out.warmup_s = SecondsSince(phase);

  rig->server().ResetStats();
  const std::vector<NodeSnapshot> before = {Snapshot(*rig)};
  const Simulator::Stats engine_before = sim.stats();
  out.setup_s = SecondsSince(start);

  const Clock::time_point window = Clock::now();
  sim.RunUntil(spec.warmup + spec.measure);
  out.wall_s = SecondsSince(window);
  out.peak_rss_mb = PeakRssMb();

  const IndexServer::Stats& stats = rig->server().stats();
  RecordPrimary(stats.latency_ms, stats.submitted, stats.TotalDropped(), &out);
  const double idle = rig->IdleFractionSince(before[0].util);
  out.Set("cpu_util", 1.0 - idle);
  out.Set("secondary_util", rig->UtilizationSince(before[0].util, TenantClass::kSecondary));
  RecordEngine(engine_before, sim.stats(), out.wall_s, &out);
  RecordNodeLayers({rig.get()}, before, &out);
  // A single box has no fabric: the net layer is bypassed by construction.
  out.Set("net.flows", 0);
  out.Set("net.bytes", 0);
  out.Set("net.chunks", 0);
  out.Set("net.flow_p99_ms", 0);
  out.Set("cluster.mla_p99_ms", 0);
  out.Set("cluster.failed", 0);
  out.Set("client.arrivals", static_cast<double>(client.submitted()));
  out.digests.emplace_back("indexserve.latency", stats.latency_ms.Digest());

  InvariantReport report;
  InvariantChecker::CheckRig(*rig, /*expect_drained=*/false, &report);
  out.violations = report.violations;
  return out;
}

Result RunCluster(const ScenarioSpec& spec) {
  Result out;
  const Clock::time_point start = Clock::now();
  CheckSpec(spec);
  const ClusterOptions options = bench::MakeClusterOptions(spec);
  Simulator sim;
  Cluster cluster(&sim, options);
  bench::ApplyScenarioTenants(&cluster, spec);
  out.build_s = SecondsSince(start);

  Clock::time_point phase = Clock::now();
  Rng trace_rng(spec.trace_seed);
  std::vector<QueryWork> trace = GenerateTrace(TraceSpec{}, spec.trace_count, &trace_rng);
  out.trace_s = SecondsSince(phase);

  OpenLoopClient client(&sim, std::move(trace), spec.load, Rng(spec.client_seed),
                        [&cluster](const QueryWork& work, SimTime) {
                          cluster.SubmitQuery(work);
                        });
  client.Run(0, spec.warmup + spec.measure);
  phase = Clock::now();
  sim.RunUntil(spec.warmup);
  out.warmup_s = SecondsSince(phase);

  cluster.ResetStats();
  const std::vector<IndexNodeRig::UtilizationSnapshot> snaps = cluster.SnapshotAll();
  std::vector<IndexNodeRig*> rigs;
  std::vector<NodeSnapshot> before;
  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    rigs.push_back(&cluster.index_node(i));
    before.push_back(Snapshot(cluster.index_node(i)));
  }
  const Simulator::Stats engine_before = sim.stats();
  out.setup_s = SecondsSince(start);

  const Clock::time_point window = Clock::now();
  sim.RunUntil(spec.warmup + spec.measure);
  out.wall_s = SecondsSince(window);
  out.peak_rss_mb = PeakRssMb();

  RecordPrimary(cluster.TlaLatency(), cluster.queries_submitted(), cluster.queries_failed(),
                &out);
  out.Set("cpu_util", cluster.MeanBusyFractionSince(snaps));
  out.Set("secondary_util", cluster.MeanUtilizationSince(snaps, TenantClass::kSecondary));
  RecordEngine(engine_before, sim.stats(), out.wall_s, &out);
  RecordNodeLayers(rigs, before, &out);

  Fabric& fabric = cluster.fabric();  // stats reset at window open
  double flows = 0, bytes = 0, chunks = 0;
  for (int e = 0; e < fabric.num_endpoints(); ++e) {
    const Fabric::EndpointStats& stats = fabric.endpoint_stats(e);
    for (int c = 0; c < kNumNetClasses; ++c) {
      flows += static_cast<double>(stats.flows_sent[c]);
      bytes += static_cast<double>(stats.bytes_sent[c]);
    }
    chunks += static_cast<double>(fabric.netdev(e).tx().stats().chunks +
                                  fabric.netdev(e).rx().stats().chunks);
  }
  for (int r = 0; r < fabric.num_racks(); ++r) {
    chunks += static_cast<double>(fabric.rack_uplink(r).stats().chunks +
                                  fabric.rack_downlink(r).stats().chunks);
  }
  const LatencyRecorder flow_latency = fabric.FlowLatencyMs(NetClass::kPrimary);
  const LatencyRecorder mla_latency = cluster.MlaLatency();
  out.Set("net.flows", flows);
  out.Set("net.bytes", bytes);
  out.Set("net.chunks", chunks);
  out.Set("net.flow_p99_ms", flow_latency.P99());
  out.Set("cluster.mla_p99_ms", mla_latency.P99());
  out.Set("cluster.failed", static_cast<double>(cluster.queries_failed()));
  out.Set("client.arrivals", static_cast<double>(client.submitted()));
  out.digests.emplace_back("cluster.leaf_latency", cluster.MergedLeafLatency().Digest());
  out.digests.emplace_back("cluster.mla_latency", mla_latency.Digest());
  out.digests.emplace_back("cluster.tla_latency", cluster.TlaLatency().Digest());
  out.digests.emplace_back("net.primary_flow_latency", flow_latency.Digest());

  // RunClusterScenario checks the cluster only when faults are on; the
  // benchmark checks every run.
  InvariantReport report;
  InvariantChecker::CheckCluster(cluster, /*expect_drained=*/false, &report);
  out.violations = report.violations;
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// JSON has no infinity; a percentile that lands among failures prints null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::string& workload, uint64_t seed, const Result& r,
                 const std::string& samples_path) {
  std::string json = "{\"workload\": " + JsonString(workload) +
                     ", \"seed\": " + std::to_string(seed) + ", \"timing\": {";
  const std::pair<const char*, double> timing[] = {
      {"setup_s", r.setup_s},          {"setup.build_s", r.build_s},
      {"setup.trace_s", r.trace_s},    {"setup.warmup_s", r.warmup_s},
      {"wall_s", r.wall_s},            {"peak_rss_mb", r.peak_rss_mb},
  };
  for (size_t i = 0; i < std::size(timing); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(timing[i].first) + ": " +
            JsonNumber(timing[i].second);
  }
  json += "}, \"values\": {";
  for (size_t i = 0; i < r.values.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(r.values[i].first) + ": " +
            JsonNumber(r.values[i].second);
  }
  json += "}, \"digests\": {";
  for (size_t i = 0; i < r.digests.size(); ++i) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, r.digests[i].second);
    json += (i == 0 ? "" : ", ") + JsonString(r.digests[i].first) + ": " + JsonString(hex);
  }
  json += "}, \"violations\": [";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(r.violations[i]);
  }
  json += "]";
  if (!samples_path.empty()) {
    json += ", \"samples\": " + std::to_string(perfbench::SamplesTaken()) +
            ", \"samples_dropped\": " + std::to_string(perfbench::SamplesDropped());
  }
  json += "}";
  std::printf("%s\n", json.c_str());
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload box_day|box_io|cluster_day --seed N "
               "[--samples PATH]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  std::string samples_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--samples") {
      samples_path = argv[i + 1];
    } else {
      Usage();
    }
  }
  if (argc % 2 != 1) {
    Usage();
  }
  const std::optional<ScenarioSpec> spec = WorkloadSpec(workload, seed);
  if (!spec.has_value()) {
    Usage();
  }

  // ITIMER_PROF ticks at the kernel's HZ at best; ask for 1 ms.
  constexpr size_t kMaxSamples = 1 << 15;
  if (!samples_path.empty() && !perfbench::StartSampling(kMaxSamples, 1000)) {
    std::fprintf(stderr, "cannot start the SIGPROF sampler: %s\n", std::strerror(errno));
    return 2;
  }
  const Result result = spec->topology.columns > 0 ? RunCluster(*spec) : RunBox(*spec);
  if (!samples_path.empty()) {
    perfbench::StopSampling();
    if (!perfbench::WriteSamples(samples_path)) {
      std::fprintf(stderr, "cannot write %s\n", samples_path.c_str());
      return 2;
    }
  }
  PrintResult(workload, seed, result, samples_path);
  return 0;
}
