#include "src/indexserve/index_server.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/index_node.h"
#include "src/fault/invariant_checker.h"
#include "src/sim/simulator.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

QueryWork MakeQuery(uint64_t id, int fanout = 5, double size = 1.0, uint64_t seed = 99) {
  QueryWork work;
  work.id = id;
  work.fanout = fanout;
  work.size_factor = size;
  work.seed = seed;
  return work;
}

TEST(IndexServerTest, SingleQueryCompletes) {
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  QueryResult result;
  bool done = false;
  rig.server().SubmitQuery(MakeQuery(1), [&](const QueryResult& r) {
    result = r;
    done = true;
  });
  sim.RunUntil(kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.dropped);
  EXPECT_GT(result.latency_ms, 0.5);
  EXPECT_LT(result.latency_ms, 50);
  EXPECT_EQ(rig.server().stats().completed, 1);
  EXPECT_EQ(rig.server().stats().latency_ms.Count(), 1u);
}

TEST(IndexServerTest, FanoutCreatesReadyBurst) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.hedging_enabled = false;
  IndexNodeRig rig(&sim, options, "m0");
  rig.server().SubmitQuery(MakeQuery(1, /*fanout=*/15));
  sim.RunUntil(kSecond);
  // The fan-out spawns all chunk workers within the same instant — at least
  // `fanout` threads ready within 5 us (the paper's measurement, §1).
  EXPECT_GE(rig.machine().metrics().max_ready_burst_5us, 15);
}

TEST(IndexServerTest, QueryExceedingTimeoutIsDropped) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.timeout = FromMicros(100);  // absurdly tight
  IndexNodeRig rig(&sim, options, "m0");
  QueryResult result;
  rig.server().SubmitQuery(MakeQuery(1), [&](const QueryResult& r) { result = r; });
  sim.RunUntil(kSecond);
  EXPECT_TRUE(result.dropped);
  EXPECT_EQ(rig.server().stats().dropped_timeout, 1);
  EXPECT_EQ(rig.server().stats().latency_ms.Count(), 0u);  // excluded from stats
}

TEST(IndexServerTest, AdmissionControlRejectsWhenSaturated) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.max_inflight = 1;
  IndexNodeRig rig(&sim, options, "m0");
  int drops = 0;
  for (int i = 0; i < 3; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i)),
                             [&](const QueryResult& r) { drops += r.dropped ? 1 : 0; });
  }
  sim.RunUntil(kSecond);
  EXPECT_EQ(rig.server().stats().dropped_admission, 2);
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(rig.server().stats().completed, 1);
}

// A rejected query got no answer from any chunk: its result must say so
// (coverage 0), on the admission path as on the crash path.
TEST(IndexServerTest, RejectedQueriesReportZeroCoverage) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.max_inflight = 1;
  IndexNodeRig rig(&sim, options, "m0");
  std::vector<QueryResult> results;
  const auto record = [&](const QueryResult& r) { results.push_back(r); };
  rig.server().SubmitQuery(MakeQuery(1, /*fanout=*/6), record);
  rig.server().SubmitQuery(MakeQuery(2, /*fanout=*/6), record);  // admission drop
  rig.Crash();
  rig.server().SubmitQuery(MakeQuery(3, /*fanout=*/6), record);  // refused while down
  ASSERT_EQ(results.size(), 3u);
  for (const QueryResult& r : results) {
    EXPECT_TRUE(r.dropped) << r.id;
    EXPECT_EQ(r.chunks_total, 6) << r.id;
    EXPECT_EQ(r.chunks_served, 0) << r.id;
    EXPECT_EQ(r.Coverage(), 0.0) << r.id;
  }
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_EQ(rig.server().stats().dropped_admission, 1);
  EXPECT_EQ(rig.server().stats().dropped_crash, 2);
}

TEST(IndexServerTest, HedgingFiresForSlowChunks) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.chunk_cpu_median_us = 5000;  // slow lookups
  options.indexserve.hedge_delay = FromMillis(1);
  IndexNodeRig rig(&sim, options, "m0");
  for (int i = 0; i < 20; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i), 5, 1.0, 1000 + i));
  }
  sim.RunUntil(kSecond);
  EXPECT_GT(rig.server().stats().hedges_issued, 0);
  EXPECT_EQ(rig.server().stats().completed, 20);
}

TEST(IndexServerTest, HedgingDisabledIssuesNone) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.chunk_cpu_median_us = 5000;
  options.indexserve.hedge_delay = FromMillis(1);
  options.indexserve.hedging_enabled = false;
  IndexNodeRig rig(&sim, options, "m0");
  for (int i = 0; i < 20; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i), 5, 1.0, 1000 + i));
  }
  sim.RunUntil(kSecond);
  EXPECT_EQ(rig.server().stats().hedges_issued, 0);
}

TEST(IndexServerTest, DeterministicAcrossRuns) {
  // The same trace must produce bit-identical results (replay semantics);
  // a different trace seed must not.
  auto run = [](uint64_t trace_seed) {
    Simulator sim;
    IndexNodeOptions options;
    IndexNodeRig rig(&sim, options, "m0");
    Rng trace_rng(trace_seed);
    auto trace = GenerateTrace(TraceSpec{}, 200, &trace_rng);
    OpenLoopClient client(&sim, trace, 2000, Rng(5),
                          [&](const QueryWork& q, SimTime) { rig.server().SubmitQuery(q); });
    client.Run(0, kSecond);
    sim.RunUntil(2 * kSecond);
    return rig.server().stats().latency_ms.Mean();
  };
  EXPECT_DOUBLE_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(IndexServerTest, LogBackpressureStallsCompletions) {
  Simulator sim;
  IndexNodeOptions options;
  options.hdd_drives = 1;
  options.indexserve.log_bytes_per_query = 64 * 1024;
  options.indexserve.log_flush_bytes = 64 * 1024;
  options.indexserve.log_buffer_cap_bytes = 128 * 1024;
  IndexNodeRig rig(&sim, options, "m0");
  // Saturate the lone HDD with bully traffic at equal priority.
  rig.hdd_scheduler().RegisterOwner(kIoOwnerDiskBully, /*priority=*/0, /*weight=*/50);
  DiskBully::Options bully_options;
  bully_options.queue_depth = 16;
  bully_options.block_bytes = 1024 * 1024;
  DiskBully bully(&sim, &rig.machine(), &rig.hdd_scheduler(), rig.secondary_job(),
                  bully_options, Rng(3));
  bully.Start();
  for (int i = 0; i < 200; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i), 5, 1.0, 5000 + i));
  }
  sim.RunUntil(5 * kSecond);
  EXPECT_GT(rig.server().stats().log_stalls, 0);
}

// --- Calibration against the paper's standalone baseline (§6.1.1) -----------
//
// Targets: median ~4 ms and P99 ~12 ms at both 2,000 and 4,000 QPS; CPU idle
// ~80% at 2,000 QPS and ~60% at 4,000 QPS.
struct CalibrationResult {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double idle = 0;
  double primary_util = 0;
  int64_t dropped = 0;
};

CalibrationResult RunStandalone(double qps, SimDuration measure = 6 * kSecond) {
  Simulator sim;
  IndexNodeOptions options;
  options.seed = 77;
  IndexNodeRig rig(&sim, options, "m0");
  Rng trace_rng(2017);
  auto trace = GenerateTrace(TraceSpec{}, 20000, &trace_rng);
  OpenLoopClient client(&sim, trace, qps, Rng(7),
                        [&](const QueryWork& q, SimTime) { rig.server().SubmitQuery(q); });
  const SimDuration warmup = kSecond;
  client.Run(0, warmup + measure);
  sim.RunUntil(warmup);
  rig.server().ResetStats();
  const auto snap = rig.SnapshotUtilization();
  sim.RunUntil(warmup + measure);
  CalibrationResult result;
  result.p50 = rig.server().stats().latency_ms.P50();
  result.p95 = rig.server().stats().latency_ms.P95();
  result.p99 = rig.server().stats().latency_ms.P99();
  result.idle = rig.IdleFractionSince(snap);
  result.primary_util = rig.UtilizationSince(snap, TenantClass::kPrimary);
  result.dropped = rig.server().stats().TotalDropped();
  return result;
}

// Every query holds one server slot from admission until it ends, and ending
// it frees the slot: after the simulator drains (all completion events,
// including in-flight I/O, have fired) no slot may stay occupied.
// InvariantChecker asserts occupied slots == inflight().
TEST(IndexServerTest, AllQueryStateDestroyedAfterDrain) {
  Simulator sim;
  IndexNodeOptions options;  // defaults: snippet reads on, hedging on, HDD log on
  IndexNodeRig rig(&sim, options, "m0");
  ASSERT_GT(rig.server().config().snippet_reads, 0);
  for (int i = 0; i < 200; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i)));
  }
  EXPECT_GT(rig.server().occupied_slots(), 0);
  sim.RunUntilEmpty();
  EXPECT_EQ(rig.server().stats().completed + rig.server().stats().TotalDropped(), 200);
  InvariantReport report;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(rig.server().occupied_slots(), 0);
}

// Same invariant on the expiry path: queries abandoned mid-pipeline (including
// with snippet reads already in flight) must also release their slots.
TEST(IndexServerTest, ExpiredQueryStateDestroyedAfterDrain) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.timeout = FromMillis(2);  // expires mid-pipeline
  IndexNodeRig rig(&sim, options, "m0");
  for (int i = 0; i < 200; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i)));
  }
  sim.RunUntilEmpty();
  EXPECT_GT(rig.server().stats().dropped_timeout, 0);
  InvariantReport report;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(rig.server().occupied_slots(), 0);
}

// Slot reuse: with a 2 ms timeout, queries expire while duplicate (hedged)
// chunk reads are still in flight, and their slots go to new queries. The late
// completions must never count toward the slot's new occupant: every query
// ends exactly once, conservation holds, and every completed result has its
// full fan-out. The read's post-processing burst still runs for a dead query
// (its CPU work is not abandoned), which pins the dispatch count.
TEST(IndexServerTest, LateCompletionsNeverReachAReusedSlot) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.timeout = FromMillis(2);
  options.indexserve.hedge_delay = FromMicros(300);
  options.indexserve.hedge_budget_fraction = 1.0;
  IndexNodeRig rig(&sim, options, "m0");
  constexpr int kQueries = 400;
  std::vector<int> ends(kQueries, 0);
  int completed = 0;
  for (int i = 0; i < kQueries; ++i) {
    // Small queries finish inside the timeout and reuse the slots that large,
    // expired ones freed.
    const double size = i % 2 == 0 ? 0.05 : 1.5;
    sim.Schedule(FromMicros(100) * i, [&, i, size] {
      rig.server().SubmitQuery(
          MakeQuery(static_cast<uint64_t>(i), /*fanout=*/8, size, 7000 + i),
          [&](const QueryResult& r) {
            ++ends[r.id];
            if (!r.dropped) {
              ++completed;
              EXPECT_EQ(r.chunks_served, r.chunks_total) << r.id;
            }
          });
    });
  }
  sim.RunUntilEmpty();
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(ends[i], 1) << "query " << i;
  }
  const IndexServer::Stats& stats = rig.server().stats();
  EXPECT_GT(stats.dropped_timeout, 0);
  EXPECT_GT(stats.hedges_issued, 0);
  EXPECT_GT(completed, 0);
  EXPECT_EQ(stats.completed, completed);
  InvariantReport report;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Pinned: skipping a dead query's post-read burst, or letting a late
  // completion act on a reused slot, changes the machine's schedule.
  EXPECT_EQ(rig.machine().metrics().dispatches, 8445);
}

TEST(IndexServeCalibration, StandaloneAt2000Qps) {
  const CalibrationResult r = RunStandalone(2000);
  ::testing::Test::RecordProperty("p50", r.p50);
  std::printf("[calibration 2000qps] p50=%.2fms p95=%.2fms p99=%.2fms idle=%.1f%% "
              "primary=%.1f%% dropped=%lld\n",
              r.p50, r.p95, r.p99, r.idle * 100, r.primary_util * 100,
              static_cast<long long>(r.dropped));
  EXPECT_GE(r.p50, 3.0);
  EXPECT_LE(r.p50, 5.0);
  EXPECT_GE(r.p99, 9.0);
  EXPECT_LE(r.p99, 15.0);
  EXPECT_GE(r.idle, 0.74);
  EXPECT_LE(r.idle, 0.86);
  EXPECT_EQ(r.dropped, 0);
}

TEST(IndexServeCalibration, StandaloneAt4000Qps) {
  const CalibrationResult r = RunStandalone(4000);
  std::printf("[calibration 4000qps] p50=%.2fms p95=%.2fms p99=%.2fms idle=%.1f%% "
              "primary=%.1f%% dropped=%lld\n",
              r.p50, r.p95, r.p99, r.idle * 100, r.primary_util * 100,
              static_cast<long long>(r.dropped));
  EXPECT_GE(r.p50, 3.0);
  EXPECT_LE(r.p50, 5.5);
  EXPECT_GE(r.p99, 9.0);
  EXPECT_LE(r.p99, 16.0);
  EXPECT_GE(r.idle, 0.52);
  EXPECT_LE(r.idle, 0.70);
  EXPECT_EQ(r.dropped, 0);
}

}  // namespace
}  // namespace perfiso
