// End-to-end disk-interference coverage: the HDD-backpressure channel and
// PerfIso's DWRR/static-cap protection of the primary's logging path
// (the single-box analogue of Fig. 9c).
#include <gtest/gtest.h>

#include "src/cluster/index_node.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

struct DiskRunResult {
  double p99 = 0;
  int64_t completed = 0;
  int64_t log_stalls = 0;
  int64_t bully_ios = 0;
};

// A node with an aggressive log profile (big entries, tiny buffer) so disk
// contention has a short path to query latency, plus a large-block disk
// bully. `protect` applies the paper's static caps + priority bands. The log
// volume (2,000 QPS x 16 KB = 32 MB/s on one 160 MB/s HDD, 8x the paper's)
// is chosen to leave the bully-free path real headroom: at 64 MB/s the
// system sits at the congestion-collapse threshold and whether a run wedges
// becomes a coin flip on the arrival realization.
DiskRunResult RunDiskScenario(bool with_bully, bool protect) {
  Simulator sim;
  IndexNodeOptions options;
  options.hdd_drives = 1;
  options.indexserve.log_bytes_per_query = 16 * 1024;
  options.indexserve.log_flush_bytes = 128 * 1024;
  options.indexserve.log_buffer_cap_bytes = 512 * 1024;
  IndexNodeRig rig(&sim, options, "m0");

  if (with_bully) {
    DiskBully::Options bully;
    bully.owner = kIoOwnerDiskBully;
    bully.queue_depth = 16;
    bully.block_bytes = 1024 * 1024;
    rig.StartDiskBully(bully);
    if (!protect) {
      // "No isolation": the bully competes at the same band with a huge
      // weight, swamping DWRR like an unmanaged OS queue would.
      rig.hdd_scheduler().RegisterOwner(kIoOwnerDiskBully, /*priority=*/0, /*weight=*/100);
    } else {
      PerfIsoConfig config;
      config.cpu_mode = CpuIsolationMode::kNone;  // isolate the disk effect
      config.io_limits.push_back(
          IoOwnerLimit{kIoOwnerDiskBully, 20e6, 0, /*priority=*/2, 1.0, 0});
      EXPECT_TRUE(rig.StartPerfIso(config).ok());
    }
  }

  Rng trace_rng(77);
  auto trace = GenerateTrace(TraceSpec{}, 8000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), 2000, Rng(5),
                        [&](const QueryWork& work, SimTime) { rig.server().SubmitQuery(work); });
  client.Run(0, 3 * kSecond);
  sim.RunUntil(kSecond);
  rig.server().ResetStats();
  sim.RunUntil(3 * kSecond);

  DiskRunResult result;
  result.p99 = rig.server().stats().latency_ms.P99();
  result.completed = rig.server().stats().completed;
  result.log_stalls = rig.server().stats().log_stalls;
  result.bully_ios = rig.disk_bully() != nullptr ? rig.disk_bully()->completed_ios() : 0;
  return result;
}

TEST(DiskInterferenceTest, UnmanagedDiskBullyStallsQueryCompletion) {
  const DiskRunResult baseline = RunDiskScenario(false, false);
  const DiskRunResult bullied = RunDiskScenario(true, false);
  // Logging backpressure: completions pile up behind the swamped HDD and the
  // measured window finishes only a fraction of the baseline's queries.
  EXPECT_GT(bullied.log_stalls, 0);
  EXPECT_LT(bullied.completed, baseline.completed / 2);
}

TEST(DiskInterferenceTest, PerfIsoDiskThrottlesProtectTheTail) {
  const DiskRunResult baseline = RunDiskScenario(false, false);
  const DiskRunResult protected_run = RunDiskScenario(true, true);
  // This scenario is deliberately harsher than the paper's (one HDD instead
  // of four, 8x the log volume), so the shared disk runs near saturation
  // even when throttled: allow a few ms instead of Fig. 9c's 1.2 ms, which
  // the paper-faithful configuration meets (see fig09_cluster).
  EXPECT_LT(protected_run.p99 - baseline.p99, 5.0);
  // And the bully still makes progress under its caps.
  EXPECT_GT(protected_run.bully_ios, 0);
}

TEST(DiskInterferenceTest, ThrottledBullyRespectsBandwidthCap) {
  const DiskRunResult protected_run = RunDiskScenario(true, true);
  // 20 MB/s cap, 1 MiB blocks, 2 s measured (+1 s warm-up, + burst
  // allowance): ~60 IOs within a generous bound.
  EXPECT_LT(protected_run.bully_ios, 90);
}

TEST(DiskInterferenceTest, ThrottledRunCompletesLikeBaseline) {
  // Ablation: with caps + priority bands the measured window completes the
  // full query volume; the unmanaged run loses most of it to log stalls.
  const DiskRunResult baseline = RunDiskScenario(false, false);
  const DiskRunResult uncapped = RunDiskScenario(true, false);
  const DiskRunResult capped = RunDiskScenario(true, true);
  EXPECT_GT(capped.completed, uncapped.completed);
  EXPECT_GT(capped.completed, baseline.completed * 9 / 10);
}

}  // namespace
}  // namespace perfiso
