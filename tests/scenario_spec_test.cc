// ScenarioSpec serialization: every workload.* knob must survive a
// ToConfigMap/FromConfigMap round trip, unknown or inapplicable keys must be
// rejected, and invalid shapes must come back as status errors (the
// perfiso_config_test.cc pattern).
#include "src/workload/scenario.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace perfiso {
namespace {

TEST(ScenarioSpecTest, OpenLoopDiurnalRoundTripsThroughConfigMap) {
  ScenarioSpec spec;
  spec.name = "unit-diurnal";
  spec.load = DiurnalLoad(/*peak_qps=*/3500, /*period_sec=*/30, /*trough_fraction=*/0.25);
  spec.tenants.cpu_bully_threads = 24;
  spec.tenants.disk_bully = true;
  spec.tenants.hdfs_client = true;
  spec.tenants.ml_training = true;
  spec.tenants.ml_worker_threads = 12;
  spec.topology = TopologySpec{6, 3, 5};
  spec.warmup = 2 * kSecond;
  spec.measure = 12 * kSecond;
  spec.trace_count = 4096;
  spec.trace_seed = 99;
  spec.client_seed = 11;
  spec.node_seed = 13;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 6;
  config.io_limits.push_back(IoOwnerLimit{903, 100e6, 0, 2, 1.0, 0});
  spec.perfiso = config;

  auto parsed = ScenarioSpec::FromConfigMap(spec.ToConfigMap());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioSpec& back = *parsed;
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.load.kind, LoadShapeKind::kDiurnal);
  EXPECT_DOUBLE_EQ(back.load.qps, spec.load.qps);
  EXPECT_DOUBLE_EQ(back.load.diurnal_period_sec, spec.load.diurnal_period_sec);
  EXPECT_DOUBLE_EQ(back.load.diurnal_trough_fraction, spec.load.diurnal_trough_fraction);
  EXPECT_EQ(back.tenants.cpu_bully_threads, spec.tenants.cpu_bully_threads);
  EXPECT_EQ(back.tenants.disk_bully, spec.tenants.disk_bully);
  EXPECT_EQ(back.tenants.hdfs_client, spec.tenants.hdfs_client);
  EXPECT_EQ(back.tenants.ml_training, spec.tenants.ml_training);
  EXPECT_EQ(back.tenants.ml_worker_threads, spec.tenants.ml_worker_threads);
  EXPECT_EQ(back.topology.columns, spec.topology.columns);
  EXPECT_EQ(back.topology.rows, spec.topology.rows);
  EXPECT_EQ(back.topology.tla_machines, spec.topology.tla_machines);
  EXPECT_EQ(back.warmup, spec.warmup);
  EXPECT_EQ(back.measure, spec.measure);
  EXPECT_EQ(back.trace_count, spec.trace_count);
  EXPECT_EQ(back.trace_seed, spec.trace_seed);
  EXPECT_EQ(back.client_seed, spec.client_seed);
  EXPECT_EQ(back.node_seed, spec.node_seed);
  ASSERT_TRUE(back.perfiso.has_value());
  EXPECT_EQ(back.perfiso->cpu_mode, CpuIsolationMode::kBlindIsolation);
  EXPECT_EQ(back.perfiso->blind.buffer_cores, 6);
  ASSERT_EQ(back.perfiso->io_limits.size(), 1u);
  EXPECT_EQ(back.perfiso->io_limits[0].owner, 903);
  EXPECT_DOUBLE_EQ(back.perfiso->io_limits[0].bandwidth_bps, 100e6);
}

TEST(ScenarioSpecTest, PiecewiseRoundTripsThroughConfigMap) {
  ScenarioSpec spec;
  spec.name = "unit-piecewise";
  spec.load.kind = LoadShapeKind::kPiecewise;
  spec.load.piecewise = {{0, 1000}, {5, 2500}, {10, 500}};

  auto parsed = ScenarioSpec::FromConfigMap(spec.ToConfigMap());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->load.piecewise.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed->load.piecewise[1].at_sec, 5);
  EXPECT_DOUBLE_EQ(parsed->load.piecewise[1].qps, 2500);
  EXPECT_FALSE(parsed->perfiso.has_value());
}

TEST(ScenarioSpecTest, EveryShapeKindRoundTrips) {
  for (LoadShapeKind kind :
       {LoadShapeKind::kConstant, LoadShapeKind::kDiurnal, LoadShapeKind::kRamp,
        LoadShapeKind::kFlashCrowd, LoadShapeKind::kSquareWave, LoadShapeKind::kPiecewise}) {
    ScenarioSpec spec;
    spec.load.kind = kind;
    if (kind == LoadShapeKind::kPiecewise) {
      spec.load.piecewise = {{0, 750}};
    }
    auto parsed = ScenarioSpec::FromConfigMap(spec.ToConfigMap());
    ASSERT_TRUE(parsed.ok()) << NameOf(kind) << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->load.kind, kind);
  }
}

TEST(ScenarioSpecTest, NonzeroSimPartitionsIsRejected) {
  // The partitioned simulator is gone; a spec still asking for it must fail
  // validation instead of silently running sequentially.
  ScenarioSpec spec;
  spec.topology = TopologySpec{4, 6, 3};
  spec.sim_partitions = 4;
  const Status status = spec.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partitioned simulation was removed"), std::string::npos);
}

TEST(ScenarioSpecTest, DefaultsFromEmptyMap) {
  auto spec = ScenarioSpec::FromConfigMap(ConfigMap());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->load.kind, LoadShapeKind::kConstant);
  EXPECT_DOUBLE_EQ(spec->load.qps, 2000);
  EXPECT_EQ(spec->topology.columns, 0);  // single box
  EXPECT_FALSE(spec->perfiso.has_value());
}

TEST(ScenarioSpecTest, UnknownKeysRejected) {
  {
    ConfigMap map;
    map.Set("workload.qsp", 100);  // typo
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.isolation", "perfiso");
    map.Set("perfiso.cpu.modes", "blind");  // typo inside perfiso.*
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("cpu.buffer_cores", 8);  // outside workload./perfiso.
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    // PerfIso has no fabric knobs (ClusterOptions configures the fabric), so
    // this is rejected rather than parsed and ignored.
    ConfigMap map;
    map.Set("workload.isolation", "perfiso");
    map.Set("perfiso.net.link_rate_bps", 3.125e9);
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  // Keys of the removed kill switch and closed-loop client: an old config
  // file that still sets one fails loudly.
  for (const char* key : {"perfiso.enabled", "workload.client",
                          "workload.closed.outstanding", "workload.closed.think_time_ns"}) {
    ConfigMap map;
    map.Set("workload.isolation", "perfiso");
    EXPECT_TRUE(ScenarioSpec::FromConfigMap(map).ok());
    map.Set(key, "1");
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok()) << key;
  }
}

TEST(ScenarioSpecTest, InapplicableKeysRejected) {
  // A ramp knob on a constant-shape scenario would silently do nothing.
  ConfigMap map;
  map.Set("workload.shape", "constant");
  map.Set("workload.ramp.end_qps", 4000);
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());

  // Piecewise rates come only from the table, so a qps knob is inapplicable
  // (it would be silently ignored otherwise).
  ConfigMap piecewise;
  piecewise.Set("workload.shape", "piecewise");
  piecewise.Set("workload.piecewise", "0:100");
  piecewise.Set("workload.qps", 500);
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(piecewise).ok());
}

TEST(ScenarioSpecTest, PerfIsoKeysWithoutIsolationRejected) {
  ConfigMap map;
  map.Set("perfiso.cpu.buffer_cores", 8);  // but workload.isolation = none
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
}

TEST(ScenarioSpecTest, InvalidShapesReturnStatusErrors) {
  {
    ConfigMap map;
    map.Set("workload.qps", -5);  // negative rate
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.shape", "piecewise");
    map.Set("workload.piecewise", "");  // empty table
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.shape", "piecewise");
    map.Set("workload.piecewise", "0:100,oops");  // malformed entry
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.shape", "piecewise");
    map.Set("workload.piecewise", "0:100,5:2000,");  // trailing comma
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.shape", "piecewise");
    map.Set("workload.piecewise", "0:100,,5:2000");  // empty entry
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.shape", "square_wave");
    map.Set("workload.square.duty", 1.5);  // duty outside (0, 1)
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.shape", "warble");  // unknown shape
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.trace.count", 0);
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
  {
    ConfigMap map;
    map.Set("workload.measure_ns", -1);
    EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
  }
}

TEST(ScenarioSpecTest, ValidateChecksTenantsAndTopology) {
  ScenarioSpec spec;
  EXPECT_TRUE(spec.Validate().ok());

  spec.topology.columns = 4;
  spec.topology.rows = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.topology.rows = 2;
  EXPECT_TRUE(spec.Validate().ok());

  spec.tenants.cpu_bully_threads = -1;
  EXPECT_FALSE(spec.Validate().ok());
}

// Regression: a run ends at warmup + measure, and the bench harness added
// the two unchecked, so a spec whose sum overflowed int64 reached the
// simulator as a negative end time.
TEST(ScenarioSpecTest, ValidateRejectsWarmupPlusMeasureOverflow) {
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  ScenarioSpec spec;
  spec.warmup = kMax - 10;
  spec.measure = 10;
  EXPECT_TRUE(spec.Validate().ok());
  spec.measure = 11;
  EXPECT_FALSE(spec.Validate().ok());
  spec.warmup = kSecond;
  spec.measure = kMax;
  EXPECT_FALSE(spec.Validate().ok());

  ConfigMap map;
  map.Set("workload.warmup_ns", kMax / 2 + 1);
  map.Set("workload.measure_ns", kMax / 2 + 1);
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());

  // The bench window stays on the clock however far the scale stretches it.
  const char* saved = std::getenv("PERFISO_BENCH_SCALE");
  const std::string saved_scale = saved != nullptr ? saved : "";
  setenv("PERFISO_BENCH_SCALE", "100", 1);
  spec.warmup = kMax - 10 * kSecond;
  spec.measure = 5 * kSecond;
  EXPECT_EQ(bench::ScaledMeasure(spec), 10 * kSecond);
  spec.warmup = 0;
  spec.measure = kMax / 2;
  EXPECT_EQ(bench::ScaledMeasure(spec), kMax);
  spec.measure = kSecond;
  EXPECT_EQ(bench::ScaledMeasure(spec), 100 * kSecond);
  if (saved != nullptr) {
    setenv("PERFISO_BENCH_SCALE", saved_scale.c_str(), 1);
  } else {
    unsetenv("PERFISO_BENCH_SCALE");
  }
}

// Regression: the trace is generated up front with one reserve() of
// trace_count records, and Validate accepted any count, so a typo such as
// 2^40 asked for a 40 TiB allocation.
TEST(ScenarioSpecTest, ValidateRejectsTraceCountAboveTheBound) {
  ScenarioSpec spec;
  spec.trace_count = kMaxTraceCount;
  EXPECT_TRUE(spec.Validate().ok());
  spec.trace_count = kMaxTraceCount + 1;
  EXPECT_FALSE(spec.Validate().ok());

  ConfigMap map;
  map.Set("workload.trace.count", "1099511627776");
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
}

// The serialized form is a plain key=value config file: text round trip too.
TEST(ScenarioSpecTest, SurvivesTextSerialization) {
  ScenarioSpec spec;
  spec.name = "text-trip";
  spec.load = FlashCrowdLoad(1500, 6000, 3, 1);
  spec.tenants.cpu_bully_threads = 48;

  auto reparsed_map = ConfigMap::Parse(spec.ToConfigMap().Serialize());
  ASSERT_TRUE(reparsed_map.ok()) << reparsed_map.status().ToString();
  auto parsed = ScenarioSpec::FromConfigMap(*reparsed_map);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->load.kind, LoadShapeKind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(parsed->load.flash_spike_qps, 6000);
  EXPECT_EQ(parsed->tenants.cpu_bully_threads, 48);
}

// --- fault.* namespace ---------------------------------------------------------

TEST(ScenarioSpecTest, FaultPlanRoundTripsThroughScenario) {
  ScenarioSpec spec;
  spec.name = "faulted";
  spec.fault.enabled = true;
  spec.fault.seed = 77;
  spec.fault.events.push_back(FaultEvent{FaultKind::kDiskDegrade, 0, 2.5, 1.5, 12.0});
  spec.fault.events.push_back(FaultEvent{FaultKind::kNodeCrash, 0, 4.0, 0.5, 1.0});

  auto parsed = ScenarioSpec::FromConfigMap(spec.ToConfigMap());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->fault.enabled);
  EXPECT_EQ(parsed->fault.seed, 77u);
  ASSERT_EQ(parsed->fault.events.size(), 2u);
  EXPECT_EQ(parsed->fault.events[0].kind, FaultKind::kDiskDegrade);
  EXPECT_DOUBLE_EQ(parsed->fault.events[0].severity, 12.0);
  EXPECT_EQ(parsed->fault.events[1].kind, FaultKind::kNodeCrash);
  EXPECT_DOUBLE_EQ(parsed->fault.events[1].at_sec, 4.0);
}

TEST(ScenarioSpecTest, DisabledFaultPlanSerializesNoKeys) {
  // The inertness contract starts at the serialization layer: a spec that
  // never mentions faults must not emit fault.* keys (golden configs and
  // digests stay untouched).
  ScenarioSpec spec;
  spec.name = "plain";
  const ConfigMap map = spec.ToConfigMap();
  for (const auto& [key, value] : map.entries()) {
    EXPECT_NE(key.rfind("fault.", 0), 0u) << key << " = " << value;
  }
}

TEST(ScenarioSpecTest, StrayFaultKeysRejected) {
  ConfigMap map;
  map.Set("fault.enabld", true);  // typo inside fault.*
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());

  ConfigMap empty_events;
  empty_events.Set("fault.enabled", true);
  empty_events.Set("fault.events", "");
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(empty_events).ok());
}

TEST(ScenarioSpecTest, RejectsIntKeyOutsideInt) {
  ConfigMap map;
  map.Set("workload.isolation", "perfiso");
  map.Set("perfiso.memory.check_every_n_polls", "4294967297");  // would truncate to 1
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
}

TEST(ScenarioSpecTest, RejectsTopologyWhoseNodeCountOverflowsInt) {
  ConfigMap map;
  map.Set("workload.topology.columns", 65536);
  map.Set("workload.topology.rows", 65536);  // 2^32 nodes used to wrap to 0
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
}

TEST(ScenarioSpecTest, RejectsNanInsideEmbeddedPerfIsoConfig) {
  ConfigMap map;
  map.Set("workload.isolation", "perfiso");
  map.Set("perfiso.cpu.rate_cap", "nan");
  EXPECT_FALSE(ScenarioSpec::FromConfigMap(map).ok());
}

// Every registry scenario survives ToConfigMap -> Serialize -> Parse ->
// FromConfigMap -> ToConfigMap unchanged, so each named experiment can live in
// a text file.
TEST(ScenarioSpecTest, EveryRegistryScenarioRoundTripsThroughText) {
  const std::vector<std::string> names = bench::ScenarioNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const ConfigMap map = bench::MustFindScenario(name).ToConfigMap();
    auto text = ConfigMap::Parse(map.Serialize());
    ASSERT_TRUE(text.ok()) << name << ": " << text.status().ToString();
    auto parsed = ScenarioSpec::FromConfigMap(*text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->ToConfigMap().entries(), map.entries()) << name;
  }
}

TEST(ScenarioSpecTest, FaultNodeOutsideTopologyRejected) {
  ScenarioSpec spec;  // single box: fault nodes must be 0
  spec.fault.enabled = true;
  spec.fault.events.push_back(FaultEvent{FaultKind::kNodeCrash, 1, 1.0, 1.0, 1.0});
  EXPECT_FALSE(spec.Validate().ok());

  spec.topology = TopologySpec{3, 2, 1};  // 6 index nodes: node 1 is fine now
  EXPECT_TRUE(spec.Validate().ok());
  spec.fault.events[0].node = 6;
  EXPECT_FALSE(spec.Validate().ok());
}

}  // namespace
}  // namespace perfiso
