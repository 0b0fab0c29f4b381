// Property sweeps over the IndexServe model: conservation of queries, load
// monotonicity, and scaling behaviour that any queueing system must satisfy.
#include <gtest/gtest.h>

#include "src/cluster/index_node.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

struct SweepResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t dropped = 0;
  double p50 = 0;
  double p99 = 0;
  double primary_util = 0;
};

SweepResult RunAtQps(double qps, uint64_t seed, SimDuration measure = 2 * kSecond) {
  Simulator sim;
  IndexNodeOptions options;
  options.seed = 7;
  IndexNodeRig rig(&sim, options, "m0");
  Rng trace_rng(seed);
  auto trace = GenerateTrace(TraceSpec{}, 8000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), qps, Rng(seed + 1),
                        [&](const QueryWork& work, SimTime) { rig.server().SubmitQuery(work); });
  const auto snap = rig.SnapshotUtilization();
  client.Run(0, measure);
  // Drain fully: no new arrivals, everything in flight completes or drops.
  sim.RunUntil(measure + 2 * kSecond);
  SweepResult result;
  result.submitted = rig.server().stats().submitted;
  result.completed = rig.server().stats().completed;
  result.dropped = rig.server().stats().TotalDropped();
  result.p50 = rig.server().stats().latency_ms.P50();
  result.p99 = rig.server().stats().latency_ms.P99();
  result.primary_util = rig.UtilizationSince(snap, TenantClass::kPrimary);
  return result;
}

class QpsSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(QpsSweepTest, EveryQueryAccountedFor) {
  const SweepResult r = RunAtQps(GetParam(), 11);
  EXPECT_GT(r.submitted, 0);
  // Conservation: submitted == completed + dropped once drained.
  EXPECT_EQ(r.submitted, r.completed + r.dropped);
}

TEST_P(QpsSweepTest, NoDropsBelowSaturation) {
  const SweepResult r = RunAtQps(GetParam(), 13);
  EXPECT_EQ(r.dropped, 0) << "dropped at " << GetParam() << " qps";
}

INSTANTIATE_TEST_SUITE_P(Loads, QpsSweepTest,
                         ::testing::Values(250.0, 1000.0, 2000.0, 3000.0, 4000.0));

TEST(IndexServePropertyTest, UtilizationScalesLinearlyWithLoad) {
  const SweepResult low = RunAtQps(1000, 17);
  const SweepResult high = RunAtQps(4000, 17);
  // Same per-query work -> utilization ratio tracks the load ratio.
  EXPECT_NEAR(high.primary_util / low.primary_util, 4.0, 0.4);
}

TEST(IndexServePropertyTest, TailGrowsWithLoadButMedianStable) {
  const SweepResult low = RunAtQps(500, 19);
  const SweepResult high = RunAtQps(4000, 19);
  // Below saturation the median barely moves...
  EXPECT_NEAR(high.p50, low.p50, 0.8);
  // ...and the tail may only grow.
  EXPECT_GE(high.p99, low.p99 - 0.5);
}

TEST(IndexServePropertyTest, OverloadIsShedNotQueuedForever) {
  // 4x the machine's capacity: admission control + expiry must shed load and
  // the server must still drain when arrivals stop.
  const SweepResult r = RunAtQps(16000, 23, kSecond);
  EXPECT_GT(r.dropped, 0);
  EXPECT_EQ(r.submitted, r.completed + r.dropped);
  // Completed queries still finished within the client timeout.
  EXPECT_LE(r.p99, 450.0);
}

TEST(IndexServePropertyTest, BiggerQueriesTakeLonger) {
  // Direct property of the model: latency increases with size_factor.
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  double latency_small = 0;
  double latency_large = 0;
  QueryWork work;
  work.fanout = 6;
  work.seed = 99;
  work.size_factor = 0.5;
  rig.server().SubmitQuery(work, [&](const QueryResult& r) { latency_small = r.latency_ms; });
  sim.RunUntil(kSecond);
  work.size_factor = 3.0;
  rig.server().SubmitQuery(work, [&](const QueryResult& r) { latency_large = r.latency_ms; });
  sim.RunUntil(2 * kSecond);
  EXPECT_GT(latency_large, latency_small * 1.5);
}

TEST(IndexServePropertyTest, SsdTrafficMatchesMissRate) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.hedging_enabled = false;
  IndexNodeRig rig(&sim, options, "m0");
  Rng trace_rng(31);
  auto trace = GenerateTrace(TraceSpec{}, 2000, &trace_rng);
  int64_t fanout_total = 0;
  SimTime at = 0;
  for (const auto& q : trace) {
    fanout_total += q.fanout;
    // Staggered submission keeps arrivals under the admission cap.
    sim.Schedule(at, [&rig, q] { rig.server().SubmitQuery(q); });
    at += FromMillis(1);
  }
  sim.RunUntil(at + 20 * kSecond);
  const auto& stats = rig.ssd_scheduler().Stats(kIoOwnerIndexData);
  // chunk reads ~= miss_rate * chunks, plus snippet_reads per query.
  const double expected = 0.5 * static_cast<double>(fanout_total) +
                          3.0 * static_cast<double>(trace.size());
  EXPECT_NEAR(static_cast<double>(stats.ops), expected, expected * 0.06);
}

}  // namespace
}  // namespace perfiso
