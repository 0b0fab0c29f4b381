// search_colocation: a configurable single-machine colocation experiment.
//
//   build/examples/search_colocation [qps] [bully_threads] [mode] [param]
//
//   qps            query rate (default 2000)
//   bully_threads  CPU bully worker count (default 48; 0 = standalone)
//   mode           none | blind | static_cores | cpu_rate_cap (default blind)
//   param          buffer cores for blind (default 8), secondary cores for
//                  static_cores, cap fraction for cpu_rate_cap
//
// Prints the full per-tenant utilization breakdown, latency distribution,
// scheduler burstiness, and secondary progress — everything the paper's
// single-box evaluation looks at.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/cluster/index_node.h"
#include "src/workload/query_trace.h"

using namespace perfiso;

int main(int argc, char** argv) {
  const double qps = argc > 1 ? std::atof(argv[1]) : 2000;
  const int bully_threads = argc > 2 ? std::atoi(argv[2]) : 48;
  const std::string mode_name = argc > 3 ? argv[3] : "blind";
  const double param = argc > 4 ? std::atof(argv[4]) : -1;

  Simulator sim;
  IndexNodeRig node(&sim, IndexNodeOptions{}, "search");
  if (bully_threads > 0) {
    node.StartCpuBully(bully_threads);
  }

  if (mode_name != "none") {
    auto mode = ParseEnum<CpuIsolationMode>(mode_name);
    if (!mode.ok()) {
      std::fprintf(stderr, "unknown mode: %s\n", mode_name.c_str());
      return 1;
    }
    PerfIsoConfig config;
    config.cpu_mode = *mode;
    if (*mode == CpuIsolationMode::kBlindIsolation) {
      config.blind.buffer_cores = param > 0 ? static_cast<int>(param) : 8;
    } else if (*mode == CpuIsolationMode::kStaticCores) {
      config.static_secondary_cores = param > 0 ? static_cast<int>(param) : 8;
    } else if (*mode == CpuIsolationMode::kCpuRateCap) {
      config.cpu_rate_cap = param > 0 ? param : 0.05;
    }
    Status status = node.StartPerfIso(config);
    if (!status.ok()) {
      std::fprintf(stderr, "PerfIso start failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  Rng trace_rng(2017);
  auto trace = GenerateTrace(TraceSpec{}, 20000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), qps, Rng(7),
                        [&](const QueryWork& query, SimTime) {
                          node.server().SubmitQuery(query);
                        });
  const SimDuration warmup = kSecond;
  const SimDuration measure = 6 * kSecond;
  client.Run(0, warmup + measure);
  sim.RunUntil(warmup);
  node.server().ResetStats();
  const auto snapshot = node.SnapshotUtilization();
  const double progress_before = node.SecondaryProgress();
  sim.RunUntil(warmup + measure);

  const auto& stats = node.server().stats();
  const auto& metrics = node.machine().metrics();
  std::printf("scenario: %.0f QPS, %d bully threads, mode=%s\n", qps, bully_threads,
              mode_name.c_str());
  std::printf("queries   : %lld submitted, %lld completed, %.2f%% dropped\n",
              static_cast<long long>(stats.submitted), static_cast<long long>(stats.completed),
              stats.DropFraction() * 100);
  std::printf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n", stats.latency_ms.P50(),
              stats.latency_ms.P95(), stats.latency_ms.P99(), stats.latency_ms.Max());
  std::printf("cpu       : primary %.1f%%  secondary %.1f%%  os %.1f%%  idle %.1f%%\n",
              node.UtilizationSince(snapshot, TenantClass::kPrimary) * 100,
              node.UtilizationSince(snapshot, TenantClass::kSecondary) * 100,
              node.UtilizationSince(snapshot, TenantClass::kOs) * 100,
              node.IdleFractionSince(snapshot) * 100);
  std::printf("scheduler : max burst %d threads/5us, p99 primary wake delay %.0f us, "
              "%lld steals\n",
              metrics.max_ready_burst_5us, metrics.primary_sched_delay_us.P99(),
              static_cast<long long>(metrics.steals));
  std::printf("secondary : %.1f core-seconds of batch work\n",
              node.SecondaryProgress() - progress_before);
  if (node.perfiso() != nullptr) {
    std::printf("perfiso   : %lld polls, %lld affinity updates, S=%d cores\n",
                static_cast<long long>(node.perfiso()->stats().polls),
                static_cast<long long>(node.perfiso()->stats().affinity_updates),
                node.perfiso()->secondary_cores());
  }
  return 0;
}
