// Determinism contract of the simulation + the parallel bench runner: a
// scenario's result is a pure function of its inputs. The same scenario run
// twice — or through RunScenarios() on worker threads — must produce
// bit-identical metric rows, event counts, and latency-recorder digests.
// fig09/fig10-style reference-tolerance checks only make sense on top of
// this.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault_injector.h"
#include "src/obs/obs.h"
#include "src/obs/trace_export.h"
#include "src/sim/simulator.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

using bench::RunParallel;
using bench::RunScenarios;
using bench::RunSingleBox;
using bench::SingleBoxResult;
using bench::SingleBoxScenario;

// Every metric compared with exact equality: these are doubles produced by
// deterministic integer-time simulation, so reruns must match to the bit.
void ExpectIdentical(const SingleBoxResult& a, const SingleBoxResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.p50_ms, b.p50_ms) << what;
  EXPECT_EQ(a.p95_ms, b.p95_ms) << what;
  EXPECT_EQ(a.p99_ms, b.p99_ms) << what;
  EXPECT_EQ(a.mean_ms, b.mean_ms) << what;
  EXPECT_EQ(a.drop_fraction, b.drop_fraction) << what;
  EXPECT_EQ(a.primary_util, b.primary_util) << what;
  EXPECT_EQ(a.secondary_util, b.secondary_util) << what;
  EXPECT_EQ(a.os_util, b.os_util) << what;
  EXPECT_EQ(a.idle_fraction, b.idle_fraction) << what;
  EXPECT_EQ(a.secondary_progress, b.secondary_progress) << what;
  EXPECT_EQ(a.hedges, b.hedges) << what;
  EXPECT_EQ(a.queries, b.queries) << what;
  EXPECT_EQ(a.latency_digest, b.latency_digest) << what;
}

SingleBoxScenario Fig04Style(double qps, int bully_threads) {
  SingleBoxScenario scenario;
  scenario.load = ConstantLoad(qps);
  scenario.tenants.cpu_bully_threads = bully_threads;
  scenario.measure = kSecond;  // keep the test quick; shape matches fig04
  return scenario;
}

// Restores an environment variable on scope exit, so a mid-test ASSERT
// cannot leak a pinned value into later tests in the binary (and a caller's
// own setting survives the test).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    old_value_ = had_old_ ? old : "";
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_value_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_value_;
};

TEST(BenchDeterminismTest, Fig04StyleScenarioIsBitIdenticalAcrossRuns) {
  const SingleBoxScenario scenario = Fig04Style(2000, 24);
  const SingleBoxResult first = RunSingleBox(scenario);
  const SingleBoxResult second = RunSingleBox(scenario);
  ExpectIdentical(first, second, "sequential rerun");
}

TEST(BenchDeterminismTest, ParallelRunnerMatchesSequentialBitExactly) {
  std::vector<SingleBoxScenario> scenarios = {
      Fig04Style(2000, 0),
      Fig04Style(2000, 24),
      Fig04Style(4000, 48),
  };

  // Force real worker threads even on single-core CI, then a sequential pass.
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "4", 1), 0);
  const std::vector<SingleBoxResult> parallel = RunScenarios(scenarios);
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "1", 1), 0);
  const std::vector<SingleBoxResult> sequential = RunScenarios(scenarios);
  ASSERT_EQ(unsetenv("PERFISO_BENCH_THREADS"), 0);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    ExpectIdentical(parallel[i], sequential[i], "row " + std::to_string(i));
  }
}

struct ClusterDigest {
  uint64_t events = 0;
  uint64_t leaf = 0;
  uint64_t mla = 0;
  uint64_t tla = 0;
  int64_t completed = 0;

  bool operator==(const ClusterDigest&) const = default;
};

// A miniature fig09: a cluster with HDFS + CPU bully + PerfIso per node,
// digested down to event counts and latency-recorder digests.
ClusterDigest RunFig09Style() {
  Simulator sim;
  ClusterOptions options;
  options.topology = ClusterTopology{2, 1, 2};
  Cluster cluster(&sim, options);
  cluster.ForEachIndexNode([&](IndexNodeRig& node) {
    node.StartHdfsClient(HdfsClient::Options{});
    node.StartCpuBully(48);
    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    config.blind.buffer_cores = 8;
    Status status = node.StartPerfIso(config);
    if (!status.ok()) {
      ADD_FAILURE() << status.ToString();
    }
  });

  Rng trace_rng(4242);
  auto trace = GenerateTrace(TraceSpec{}, 2000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/800, Rng(9),
                        [&cluster](const QueryWork& work, SimTime) {
                          cluster.SubmitQuery(work);
                        });
  client.Run(0, 2 * kSecond);
  sim.RunUntil(2 * kSecond);

  ClusterDigest digest;
  digest.events = sim.EventsExecuted();
  digest.leaf = cluster.MergedLeafLatency().Digest();
  digest.mla = cluster.MlaLatency().Digest();
  digest.tla = cluster.TlaLatency().Digest();
  digest.completed = cluster.queries_completed();
  return digest;
}

// The load-shape engine rides the same contract: shaped (thinned) arrival
// streams are pure functions of the spec, so registry scenarios run
// bit-identically on worker threads too. Run at a reduced bench scale so
// ScaleScenarioForBench's timeline compression (the spike, the bursts, the
// full diurnal period — all inside a ~1 s window) is on the tested path.
TEST(BenchDeterminismTest, ShapedScenariosParallelMatchesSequential) {
  const char* kNames[] = {"diurnal-blind", "flash-crowd-no-isolation", "burst-train-blind"};
  std::vector<SingleBoxScenario> scenarios;
  for (const char* name : kNames) {
    auto spec = bench::FindScenario(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    scenarios.push_back(*spec);
  }

  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "0.05");
  const ScopedEnv threads_guard("PERFISO_BENCH_THREADS", "4");
  const std::vector<SingleBoxResult> parallel = RunScenarios(scenarios);
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "1", 1), 0);
  const std::vector<SingleBoxResult> sequential = RunScenarios(scenarios);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    ExpectIdentical(parallel[i], sequential[i], kNames[i]);
    EXPECT_GT(parallel[i].queries, 0) << kNames[i];
  }
}

// --- Golden digests ----------------------------------------------------------
//
// Named scenarios pinned at fixed seed/scale: a workload refactor that
// silently changes simulation results (instead of just restructuring code)
// trips these, because the latency digest hashes every sample in order. The
// two fault rows cover the server's crash path (live queries failed, then
// submissions rejected while down) and its chunk retry + degrade deadline
// path (a 40x disk window under the robustness stack).
//
// Update procedure (ONLY when a results-affecting change is intended, and
// say so in the commit message):
//   PERFISO_UPDATE_GOLDENS=1 ./bench_determinism_test --gtest_filter='*PinnedScenario*'
// prints the new table; paste it over kGoldens below. The values depend on
// libm (exp/log/cos in the RNG and load shapes), so they are tied to the
// toolchain the suite runs on; a digest mismatch after a compiler/libc bump
// with no simulation change is update-worthy, not a regression.
struct Golden {
  const char* scenario;
  uint64_t digest;
  int64_t queries;
  bool resilient = false;  // run with bench::ResilientNodeOptions()
};

constexpr Golden kGoldens[] = {
    {"diurnal-blind", 0x6a520f8c86032a81ULL, 2386},
    {"flash-crowd-no-isolation", 0x2f584ed6577403cfULL, 8907},
    {"fault-crash-restart", 0x39472fe4667a38bbULL, 5941},
    {"fault-disk-degrade-blind", 0x30307285edf85b8cULL, 5941, /*resilient=*/true},
};

IndexNodeOptions GoldenNodeOptions(const Golden& golden) {
  return golden.resilient ? bench::ResilientNodeOptions() : IndexNodeOptions{};
}

TEST(GoldenDigestTest, PinnedScenarioDigests) {
  // Fixed scale regardless of the caller's bench environment.
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");

  const bool update = std::getenv("PERFISO_UPDATE_GOLDENS") != nullptr;
  for (const Golden& golden : kGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->measure = 3 * kSecond;  // fixed, fast window (flash spike at t=3s is inside)
    const SingleBoxResult result = RunSingleBox(*spec, GoldenNodeOptions(golden));
    if (update) {
      std::printf("    {\"%s\", 0x%016llxULL, %lld%s},\n", golden.scenario,
                  static_cast<unsigned long long>(result.latency_digest),
                  static_cast<long long>(result.queries),
                  golden.resilient ? ", /*resilient=*/true" : "");
      continue;
    }
    EXPECT_EQ(result.latency_digest, golden.digest)
        << golden.scenario << ": digest changed — a workload refactor altered "
        << "simulation results (see the update procedure above)";
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
    if (spec->fault.enabled) {
      // The fault rows only pin their paths if the fault lands in the window.
      EXPECT_GT(result.faults_injected, 0) << golden.scenario;
      EXPECT_GT(result.dropped_crash + result.retries, 0) << golden.scenario;
    }
  }
}

// The observability subsystem is contractually passive: with tracing and
// metrics enabled at FULL sampling (every query retained, sampler ticking),
// the pinned goldens must still match bit-for-bit. The tracer never draws
// from simulation RNG streams and the sampler only reads metric state, so
// turning obs on cannot move a single sample.
TEST(GoldenDigestTest, FullSamplingObservabilityLeavesDigestsUnchanged) {
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");
  for (const Golden& golden : kGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->measure = 3 * kSecond;
    spec->obs.enabled = true;
    spec->obs.sampling = TraceSampling::kAll;
    bench::ObsArtifacts obs;
    const SingleBoxResult result = RunSingleBox(*spec, GoldenNodeOptions(golden), &obs);
    EXPECT_EQ(result.latency_digest, golden.digest)
        << golden.scenario << ": enabling observability changed simulation "
        << "results — the tracer/sampler must stay passive (DESIGN.md §7)";
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
    // And the run actually produced artifacts (obs was not silently off).
    EXPECT_TRUE(obs.enabled);
    EXPECT_NE(obs.trace_json.find("\"traceEvents\""), std::string::npos);
    EXPECT_FALSE(obs.attribution.empty());
    EXPECT_NE(obs.metrics_json.find("\"series\""), std::string::npos);
  }
}

// The fault subsystem is contractually inert while disabled (DESIGN.md §8):
// with the fault plan left disabled — even with a different fault seed and a
// staged (but disabled) event list — the pinned goldens must match
// bit-for-bit. No RNG stream forks, no event is scheduled, and the retry /
// degradation paths in the server are fully gated.
TEST(GoldenDigestTest, DisabledFaultPlanLeavesDigestsUnchanged) {
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");
  for (const Golden& golden : kGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    if (spec->fault.enabled) {
      continue;  // fault rows pin the plan's effect, not its absence
    }
    spec->measure = 3 * kSecond;
    spec->fault.enabled = false;  // explicit, with non-default fields staged
    spec->fault.seed = 0xdeadbeef;
    spec->fault.events.push_back(
        FaultEvent{FaultKind::kNodeCrash, 0, /*at_sec=*/1.5, /*duration_sec=*/1.0, 1.0});
    const SingleBoxResult result = RunSingleBox(*spec);
    EXPECT_EQ(result.latency_digest, golden.digest)
        << golden.scenario << ": a disabled fault plan changed simulation "
        << "results — the fault subsystem must be inert when off (DESIGN.md §8)";
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
    EXPECT_EQ(result.faults_injected, 0);
    EXPECT_EQ(result.dropped_crash, 0);
  }
}

// --- RunClusterScenario --------------------------------------------------------

// Shrinks a registry spec onto a small cluster (6 rows x 2 columns plus 2
// TLAs) so the cluster runner can execute it several times per test.
ScenarioSpec SmallCluster(ScenarioSpec spec) {
  spec.topology.columns = 2;
  spec.topology.rows = 6;
  spec.topology.tla_machines = 2;
  spec.trace_count = 4000;
  return spec;
}

// Exact equality across the board: integer-time simulation, so a rerun that
// differs in any bit is a determinism bug, not noise.
void ExpectIdentical(const bench::ClusterRunResult& a, const bench::ClusterRunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.leaf_digest, b.leaf_digest) << what;
  EXPECT_EQ(a.mla_digest, b.mla_digest) << what;
  EXPECT_EQ(a.tla_digest, b.tla_digest) << what;
  EXPECT_EQ(a.flow_digest, b.flow_digest) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
  EXPECT_EQ(a.tla_p99_ms, b.tla_p99_ms) << what;
  EXPECT_EQ(a.tla_mean_ms, b.tla_mean_ms) << what;
  EXPECT_EQ(a.mean_busy, b.mean_busy) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
}

TEST(BenchDeterminismTest, ClusterScenarioRerunIsBitIdentical) {
  // Scale 0.125 maps the registry's 8 s window onto the 1 s floor.
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "0.125");
  const ScenarioSpec spec = SmallCluster(bench::MustFindScenario("diurnal-blind"));
  const bench::ClusterRunResult first = bench::RunClusterScenario(spec);
  const bench::ClusterRunResult second = bench::RunClusterScenario(spec);
  ASSERT_GT(first.completed, 0);
  ExpectIdentical(first, second, "cluster rerun");
}

TEST(BenchDeterminismTest, ClusterScenarioInjectsFaultPlan) {
  // The registry's crash window (t = 3-5 s of a 1 s + 8 s run) remaps to
  // t = 1.25-1.5 s, inside the scaled 1 s measurement window.
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "0.125");
  const ScenarioSpec spec = SmallCluster(bench::MustFindScenario("fault-crash-restart"));
  ASSERT_TRUE(spec.fault.enabled);
  const bench::ClusterRunResult result = bench::RunClusterScenario(spec);
  EXPECT_GT(result.faults_injected, 0);
  EXPECT_GT(result.completed, 0);
}

// --- Cluster golden digests --------------------------------------------------
//
// The single-box goldens above never touch the fabric; these rows pin cluster
// runs, whose every RPC crosses it. The one-rack row is a registry scenario
// through RunClusterScenario. The two-rack row runs a network bully on every
// index node (egress-capped on even nodes only) under tracing, so it covers
// the rack uplinks, the egress-bucket wake, TX preemption and the fabric's
// trace spans. The faulted row crashes one leaf, then a whole row, under
// tracing, so it covers the fan-out skip of a crashed leaf, crash-raced
// leaf rejects, and the TLA-side failure of a query with no live MLA. Fields
// a row does not measure stay 0. Same update procedure as kGoldens, with
// --gtest_filter='*PinnedCluster*'.
struct ClusterPin {
  uint64_t events = 0;
  uint64_t leaf = 0;
  uint64_t mla = 0;
  uint64_t tla = 0;
  uint64_t primary_flow = 0;
  uint64_t secondary_flow = 0;
  int64_t completed = 0;
  int64_t flows_in_flight = 0;
  uint64_t trace_hash = 0;  // FNV-1a of the Chrome-trace export
  int64_t failed = 0;
  int64_t degraded = 0;

  bool operator==(const ClusterPin&) const = default;
};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

ClusterPin RunOneRackGolden() {
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "0.125");
  const bench::ClusterRunResult r =
      bench::RunClusterScenario(SmallCluster(bench::MustFindScenario("diurnal-blind")));
  ClusterPin pin;
  pin.events = r.events_executed;
  pin.leaf = r.leaf_digest;
  pin.mla = r.mla_digest;
  pin.tla = r.tla_digest;
  pin.primary_flow = r.flow_digest;
  pin.completed = r.completed;
  return pin;
}

ClusterPin RunTwoRackTracedGolden() {
  Simulator sim;
  ClusterOptions options;
  options.topology = ClusterTopology{10, 2, 2};  // 22 endpoints: racks of 16 and 6
  Cluster cluster(&sim, options);
  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    NetworkBully::Options net;
    net.block_bytes = 1024 * 1024;
    net.streams = 4;
    for (int p = 0; p < cluster.NumIndexNodes(); ++p) {
      if (p != i) {
        net.peers.push_back(cluster.index_endpoint(p));
      }
    }
    cluster.index_node(i).StartNetworkBully(&cluster.fabric(), cluster.index_endpoint(i), net);
    PerfIsoConfig config;
    if (i % 2 == 0) {
      config.egress_rate_cap_bps = 50e6;
    }
    EXPECT_TRUE(cluster.index_node(i).StartPerfIso(config).ok());
  }
  ObsSpec spec;
  spec.enabled = true;
  spec.sampling = TraceSampling::kSlowestK;
  spec.slowest_k = 32;
  ObsContext obs(spec);
  cluster.EnableTracing(&obs.tracer);

  Rng rng(21);
  auto trace = GenerateTrace(TraceSpec{}, 2000, &rng);
  OpenLoopClient client(&sim, std::move(trace), 1500, Rng(22),
                        [&](const QueryWork& work, SimTime) { cluster.SubmitQuery(work); });
  client.Run(0, 3 * kSecond / 10);
  sim.RunUntil(kSecond / 2);

  ClusterPin pin;
  pin.events = sim.EventsExecuted();
  pin.leaf = cluster.MergedLeafLatency().Digest();
  pin.mla = cluster.MlaLatency().Digest();
  pin.tla = cluster.TlaLatency().Digest();
  pin.primary_flow = cluster.fabric().FlowLatencyMs(NetClass::kPrimary).Digest();
  pin.secondary_flow = cluster.fabric().FlowLatencyMs(NetClass::kSecondary).Digest();
  pin.completed = cluster.queries_completed();
  pin.flows_in_flight = cluster.fabric().flows_in_flight();
  pin.trace_hash = Fnv1a(ExportChromeTrace(obs.tracer));
  return pin;
}

ClusterPin RunFaultedClusterGolden() {
  Simulator sim;
  ClusterOptions options;
  options.topology = ClusterTopology{4, 2, 1};
  Cluster cluster(&sim, options);
  // Leaf 1 (row 0) dies mid-run, at an instant that lands while an MLA's
  // request to it is on the wire (a crash-raced reject); later every node of
  // row 1 dies at once, so the TLA fails the queries it routes there.
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 1, 0.10026, 0.1, 1.0});
  for (int node = 4; node < 8; ++node) {
    plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, node, 0.25, 0.1, 1.0});
  }
  FaultInjector injector(&sim, plan, &cluster);
  injector.Arm();
  ObsSpec spec;
  spec.enabled = true;
  ObsContext obs(spec);
  cluster.EnableTracing(&obs.tracer);

  Rng rng(31);
  auto trace = GenerateTrace(TraceSpec{}, 2000, &rng);
  OpenLoopClient client(&sim, std::move(trace), 800, Rng(32),
                        [&](const QueryWork& work, SimTime) { cluster.SubmitQuery(work); });
  client.Run(0, 9 * kSecond / 20);
  sim.RunUntilEmpty();

  ClusterPin pin;
  pin.events = sim.EventsExecuted();
  pin.leaf = cluster.MergedLeafLatency().Digest();
  pin.mla = cluster.MlaLatency().Digest();
  pin.tla = cluster.TlaLatency().Digest();
  pin.primary_flow = cluster.fabric().FlowLatencyMs(NetClass::kPrimary).Digest();
  pin.completed = cluster.queries_completed();
  pin.trace_hash = Fnv1a(ExportChromeTrace(obs.tracer));
  pin.failed = cluster.queries_failed();
  pin.degraded = cluster.queries_degraded();
  return pin;
}

struct ClusterGolden {
  const char* name;
  ClusterPin (*run)();
  ClusterPin pin;
};

const ClusterGolden kClusterGoldens[] = {
    {"one-rack", RunOneRackGolden,
     {599387, 0x657fac51fb605de0ULL, 0x1a64abbb1af33fd0ULL, 0xd4e9c2ccd83b7188ULL,
      0xf354cce25d3df5c0ULL, 0x0000000000000000ULL, 6518, 0, 0x0000000000000000ULL, 0, 0}},
    {"two-rack-traced", RunTwoRackTracedGolden,
     {424284, 0xeb31dee166260156ULL, 0x00f594b3b431b32eULL, 0x21560089b77d0ca6ULL,
      0x5f54dacec071bfdcULL, 0x3a56e1ae5b888a4bULL, 413, 80, 0xe52d21b71b238a3fULL, 0, 0}},
    {"faulted", RunFaultedClusterGolden,
     {38775, 0xdb845a618f8945c6ULL, 0x5b462909873dbf1aULL, 0xe64ff824e2c19bdaULL,
      0x1c88b53b2a0cf85cULL, 0x0000000000000000ULL, 308, 0, 0x061013fc86eb9692ULL, 38, 39}},
};

TEST(GoldenDigestTest, PinnedClusterDigests) {
  const bool update = std::getenv("PERFISO_UPDATE_GOLDENS") != nullptr;
  for (const ClusterGolden& golden : kClusterGoldens) {
    const ClusterPin got = golden.run();
    if (update) {
      std::printf(
          "    {\"%s\", ...,\n     {%llu, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL,\n"
          "      0x%016llxULL, 0x%016llxULL, %lld, %lld, 0x%016llxULL, %lld, %lld}},\n",
          golden.name, static_cast<unsigned long long>(got.events),
          static_cast<unsigned long long>(got.leaf), static_cast<unsigned long long>(got.mla),
          static_cast<unsigned long long>(got.tla),
          static_cast<unsigned long long>(got.primary_flow),
          static_cast<unsigned long long>(got.secondary_flow),
          static_cast<long long>(got.completed), static_cast<long long>(got.flows_in_flight),
          static_cast<unsigned long long>(got.trace_hash), static_cast<long long>(got.failed),
          static_cast<long long>(got.degraded));
      continue;
    }
    EXPECT_EQ(got.events, golden.pin.events) << golden.name;
    EXPECT_EQ(got.leaf, golden.pin.leaf) << golden.name;
    EXPECT_EQ(got.mla, golden.pin.mla) << golden.name;
    EXPECT_EQ(got.tla, golden.pin.tla) << golden.name;
    EXPECT_EQ(got.primary_flow, golden.pin.primary_flow) << golden.name;
    EXPECT_EQ(got.secondary_flow, golden.pin.secondary_flow) << golden.name;
    EXPECT_EQ(got.completed, golden.pin.completed) << golden.name;
    EXPECT_EQ(got.flows_in_flight, golden.pin.flows_in_flight) << golden.name;
    EXPECT_EQ(got.trace_hash, golden.pin.trace_hash) << golden.name;
    EXPECT_EQ(got.failed, golden.pin.failed) << golden.name;
    EXPECT_EQ(got.degraded, golden.pin.degraded) << golden.name;
  }
}

TEST(BenchDeterminismTest, Fig09StyleClusterDigestsAreIdentical) {
  const ClusterDigest first = RunFig09Style();
  const ClusterDigest second = RunFig09Style();
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.leaf, second.leaf);
  EXPECT_EQ(first.mla, second.mla);
  EXPECT_EQ(first.tla, second.tla);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_GT(first.completed, 0);

  // The cluster digest must also be stable when computed on worker threads
  // next to another simulation (no hidden shared state between Simulators).
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "2", 1), 0);
  const std::vector<ClusterDigest> parallel = RunParallel<ClusterDigest>({
      [] { return RunFig09Style(); },
      [] { return RunFig09Style(); },
  });
  ASSERT_EQ(unsetenv("PERFISO_BENCH_THREADS"), 0);
  EXPECT_EQ(parallel[0], first);
  EXPECT_EQ(parallel[1], first);
}

}  // namespace
}  // namespace perfiso
