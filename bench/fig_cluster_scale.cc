// Cluster-scale bench: the simulator's end-to-end headline on one big day.
//
// Scenario: a 1,000-leaf cluster (50 index rows x 20 columns, 31 TLA
// machines) serving one full — compressed — diurnal day of query load at
// 2,000 QPS peak, with the paper's colocated CPU bully and blind isolation
// (B=8) on every leaf. The day runs once, sequentially, on one Simulator.
//
// One row, `sequential`: wall seconds, events/sec, queries completed, and the
// TLA P99. Events/sec over this day is the figure the engine's end-to-end
// throughput is judged by; for multi-core speedups, run independent
// scenarios through RunParallel (DESIGN.md §4).
//
// Paper tie-in: §6.2 runs PerfIso on a 75-machine production slice because
// that is what fits an evaluation; this bench is the simulator making the
// 1,000-machine version of that experiment a single command.
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "src/workload/scenario.h"

namespace {

using namespace perfiso;

ScenarioSpec ClusterScaleScenario() {
  ScenarioSpec spec;
  spec.name = "cluster-scale-diurnal";
  // One full day per measurement window (ScaleScenarioForBench keeps that
  // ratio at any PERFISO_BENCH_SCALE).
  spec.load = DiurnalLoad(/*peak_qps=*/2000, /*period_sec=*/8, /*trough_fraction=*/0.25);
  spec.measure = 8 * kSecond;
  spec.warmup = kSecond / 2;
  spec.topology.columns = 20;
  spec.topology.rows = 50;  // 1,000 IndexServe machines
  spec.topology.tla_machines = 31;
  spec.tenants.cpu_bully_threads = 8;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 8;
  spec.perfiso = config;
  spec.trace_count = 20000;
  return spec;
}

}  // namespace

int main() {
  bench::StartReport("cluster_scale");
  bench::PrintHeader("Cluster-scale simulation (1,000 leaves, diurnal day)", "cluster scale",
                     "simulator headline; extends the fig09/fig10 setting");

  const auto start = std::chrono::steady_clock::now();
  const bench::ClusterRunResult r = bench::RunClusterScenario(ClusterScaleScenario());
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double events_per_sec =
      wall_s > 0 ? static_cast<double>(r.events_executed) / wall_s : 0;

  bench::ReportRow("sequential", {
                                     {"wall_s", wall_s},
                                     {"events_per_sec", events_per_sec},
                                     {"completed", static_cast<double>(r.completed)},
                                     {"tla_p99_ms", r.tla_p99_ms},
                                 });
  std::printf("sequential %8.2fs wall  %10.0f events/s  p99 %.2f ms  %lld queries\n", wall_s,
              events_per_sec, r.tla_p99_ms, static_cast<long long>(r.completed));
  std::printf("paper: n/a — simulator scale headline (the paper's cluster tops out at "
              "75 machines)\n");
  return 0;
}
