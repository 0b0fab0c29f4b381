// Fault subsystem tests: plan serialization, injector semantics (crash /
// restart / disk / straggler windows), crash-mid-query lifetime (the SimSan
// regression), zero-completion stat paths, and the disabled-plan inertness
// contract.
#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/disk/disk.h"
#include "src/fault/fault_plan.h"
#include "src/fault/invariant_checker.h"
#include "src/sim/simulator.h"
#include "src/util/config.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

QueryWork MakeQuery(uint64_t id, int fanout = 5) {
  QueryWork work;
  work.id = id;
  work.fanout = fanout;
  work.size_factor = 1.0;
  work.seed = 7000 + id;
  return work;
}

// --- FaultPlan serialization ----------------------------------------------------

TEST(FaultPlanTest, DisabledPlanSerializesNothing) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 0, 1.0, 2.0, 1.0});
  ConfigMap map;
  plan.AppendToConfigMap(&map);
  EXPECT_TRUE(map.entries().empty());
}

TEST(FaultPlanTest, RoundTripPreservesEvents) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 1234;
  plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 3, 1.5, 2.25, 1.0});
  plan.events.push_back(FaultEvent{FaultKind::kDiskDegrade, 0, 0.5, 1.0, 8.5});
  plan.events.push_back(FaultEvent{FaultKind::kLinkDegrade, 1, 2.0, 0.75, 0.25});
  plan.events.push_back(FaultEvent{FaultKind::kCpuStraggler, 2, 3.0, 1.0, 16.0});
  ConfigMap map;
  plan.AppendToConfigMap(&map);

  auto parsed = FaultPlan::FromConfigMap(map);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->enabled);
  EXPECT_EQ(parsed->seed, 1234u);
  ASSERT_EQ(parsed->events.size(), plan.events.size());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(parsed->events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(parsed->events[i].node, plan.events[i].node) << i;
    EXPECT_DOUBLE_EQ(parsed->events[i].at_sec, plan.events[i].at_sec) << i;
    EXPECT_DOUBLE_EQ(parsed->events[i].duration_sec, plan.events[i].duration_sec) << i;
    EXPECT_DOUBLE_EQ(parsed->events[i].severity, plan.events[i].severity) << i;
  }
}

TEST(FaultPlanTest, RejectsMalformedEvents) {
  const auto parse = [](const std::string& events) {
    ConfigMap map;
    map.Set("fault.enabled", true);
    map.Set("fault.events", events);
    return FaultPlan::FromConfigMap(map).status();
  };
  EXPECT_FALSE(parse("meteor:0:1:1:1").ok());       // unknown kind
  EXPECT_FALSE(parse("crash:0:1:1").ok());          // missing field
  EXPECT_FALSE(parse("crash:0:1:1:1,").ok());       // trailing comma
  EXPECT_FALSE(parse("crash:0:x:1:1").ok());        // malformed number
  EXPECT_FALSE(parse("crash:0:-1:1:1").ok());       // negative time
  EXPECT_FALSE(parse("crash:0:1:0:1").ok());        // zero duration
  EXPECT_FALSE(parse("disk:0:1:1:0.5").ok());       // disk multiplier < 1
  EXPECT_FALSE(parse("link:0:1:1:1.5").ok());       // link fraction > 1
  EXPECT_FALSE(parse("").ok());                     // present but empty
}

// Parse-boundary regressions: each of these events used to be accepted.
Status ParseEvents(const std::string& events) {
  ConfigMap map;
  map.Set("fault.enabled", true);
  map.Set("fault.events", events);
  return FaultPlan::FromConfigMap(map).status();
}

TEST(FaultPlanTest, RejectsNanEventTime) {
  EXPECT_FALSE(ParseEvents("crash:0:nan:1:1").ok());
}

TEST(FaultPlanTest, RejectsInfiniteSeverity) {
  EXPECT_FALSE(ParseEvents("disk:0:1:1:inf").ok());
}

TEST(FaultPlanTest, RejectsFractionalNode) {
  EXPECT_FALSE(ParseEvents("crash:0.9:1:1:1").ok());  // used to become node 0
}

TEST(FaultPlanTest, ValidateRejectsNonFiniteAndOutOfRangeEvents) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kDiskDegrade, 0, 1.0, 1.0, 2.0});
  ASSERT_TRUE(plan.Validate(1).ok());
  FaultEvent& event = plan.events[0];
  for (double bad : {nan, inf}) {
    event.at_sec = bad;
    EXPECT_FALSE(plan.Validate(1).ok());
    event.at_sec = 1.0;
    event.duration_sec = bad;
    EXPECT_FALSE(plan.Validate(1).ok());
    event.duration_sec = 1.0;
    event.severity = bad;
    EXPECT_FALSE(plan.Validate(1).ok());
    event.severity = 2.0;
  }
  event.at_sec = 2e9;  // past the injector's int64-nanosecond range
  EXPECT_FALSE(plan.Validate(1).ok());
  event.at_sec = 1.0;
  event.kind = FaultKind::kCpuStraggler;
  event.severity = 1e10;  // not an int thread count
  EXPECT_FALSE(plan.Validate(1).ok());
}

// Regression: a finite but huge disk-degrade multiplier used to pass
// Validate and overflow the double -> int64 cast in DiskDevice::ServiceTime
// (UBSan float-cast-overflow). Every accepted severity must keep the slowest
// request's service time on the clock.
TEST(FaultPlanTest, DiskDegradeSeverityKeepsServiceTimeInRange) {
  IoRequest request;
  request.op = IoOp::kWrite;
  request.bytes = 128LL * 1024 * 1024;  // an HDFS block on a random HDD write
  const SimDuration healthy = DiskDevice(DiskSpec::Hdd(), "hdd").ServiceTime(request);
  for (double severity : {2.0, 1e6, 1e15, 1e300}) {
    FaultPlan plan;
    plan.enabled = true;
    plan.events.push_back(FaultEvent{FaultKind::kDiskDegrade, 0, 1.0, 1.0, severity});
    const bool accepted = plan.Validate(1).ok();
    EXPECT_EQ(accepted, severity <= 1e6) << severity;
    if (!accepted) {
      continue;
    }
    DiskDevice degraded(DiskSpec::Hdd(), "hdd");
    degraded.SetLatencyMultiplier(severity);
    EXPECT_GE(degraded.ServiceTime(request), healthy) << severity;
  }
}

TEST(FaultPlanTest, ValidateBoundsNodesToTopology) {
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 4, 1.0, 1.0, 1.0});
  EXPECT_TRUE(plan.Validate(5).ok());
  EXPECT_FALSE(plan.Validate(4).ok());
  EXPECT_TRUE(plan.Validate().ok());  // shape-only: node bound unknown
}

TEST(FaultPlanTest, SampleIsDeterministicAndValid) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const FaultPlan a = FaultPlan::Sample(seed, /*num_nodes=*/4, /*horizon_sec=*/8);
    const FaultPlan b = FaultPlan::Sample(seed, /*num_nodes=*/4, /*horizon_sec=*/8);
    ASSERT_TRUE(a.Validate(4).ok()) << "seed " << seed;
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].kind, b.events[i].kind);
      EXPECT_DOUBLE_EQ(a.events[i].at_sec, b.events[i].at_sec);
    }
  }
}

// --- Crash / restart semantics --------------------------------------------------

TEST(FaultInjectionTest, CrashFailsInflightAndRejectsUntilRestart) {
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  int dropped = 0;
  int completed = 0;
  const auto done = [&](const QueryResult& r) { (r.dropped ? dropped : completed)++; };
  for (uint64_t i = 0; i < 10; ++i) {
    rig.server().SubmitQuery(MakeQuery(i), done);
  }
  sim.RunUntil(FromMillis(1));  // mid-flight: fan-outs are open
  ASSERT_GT(rig.server().inflight(), 0);
  rig.Crash();
  EXPECT_EQ(rig.server().inflight(), 0);  // every live query failed exactly once

  // Submissions while down are rejected without touching the machine.
  rig.server().SubmitQuery(MakeQuery(100), done);
  EXPECT_GE(rig.server().stats().dropped_crash, 11);

  rig.Restart();
  rig.server().SubmitQuery(MakeQuery(101), done);
  sim.RunUntilEmpty();
  EXPECT_EQ(completed, 1);  // the post-restart query
  EXPECT_EQ(dropped, 11);
  EXPECT_EQ(rig.server().stats().completions_while_crashed, 0);

  InvariantReport report;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(FaultInjectionTest, CrashFailsLiveQueriesInSubmissionOrder) {
  // The crash callbacks fire in submission order even when a reused server
  // slot puts a newer query ahead of older ones in the slot table: query 0
  // completes, query 3 takes its slot, and the crash must still fail 1, 2, 3.
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  std::vector<uint64_t> order;
  const auto record = [&](const QueryResult& r) { order.push_back(r.id); };
  rig.server().SubmitQuery(MakeQuery(0), record);
  for (uint64_t id : {1, 2}) {
    QueryWork slow = MakeQuery(id);
    slow.size_factor = 20;  // still running when query 0 finishes
    rig.server().SubmitQuery(slow, record);
  }
  sim.RunUntil(FromMillis(30));
  ASSERT_EQ(order, std::vector<uint64_t>{0});
  rig.server().SubmitQuery(MakeQuery(3), record);
  rig.Crash();
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(FaultInjectionTest, CrashMidQueryLeavesNoLiveStates) {
  // Lifetime / SimSan regression: crash with open fan-outs, hedge timers, and
  // in-flight disk completions, then drain. Every query slot must be freed
  // (the checker asserts occupied slots == inflight == 0), and no cancelled
  // timer/completion may fire into freed state — under -DPERFISO_SIMSAN=ON
  // (the CI simsan lane runs this test) a stale handle aborts the process.
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.hedge_delay = FromMillis(1);  // hedges armed early
  IndexNodeRig rig(&sim, options, "m0");
  for (uint64_t i = 0; i < 32; ++i) {
    rig.server().SubmitQuery(MakeQuery(i, /*fanout=*/8));
  }
  sim.RunUntil(FromMillis(2));
  ASSERT_GT(rig.server().inflight(), 0);
  rig.Crash();
  sim.RunUntil(FromMillis(10));
  rig.Restart();
  sim.RunUntilEmpty();
  InvariantReport report;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(rig.server().occupied_query_slots(), 0);
  sim.CheckEngineInvariants();  // aborts on a corrupt event queue
}

TEST(FaultInjectionTest, AllQueriesFailingKeepsStatPathsSafe) {
  // Zero-completion regression: a window where *nothing* completes must leave
  // the percentile/mean/digest surfaces readable (0, not UB or a crash).
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  rig.Crash();  // down before anything arrives
  for (uint64_t i = 0; i < 16; ++i) {
    rig.server().SubmitQuery(MakeQuery(i));
  }
  sim.RunUntilEmpty();
  const auto& stats = rig.server().stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.dropped_crash, 16);
  EXPECT_EQ(stats.latency_ms.Count(), 0u);
  EXPECT_EQ(stats.latency_ms.P99(), 0);
  EXPECT_EQ(stats.latency_ms.Mean(), 0);
  EXPECT_EQ(stats.latency_ms.Min(), 0);
  EXPECT_EQ(stats.coverage.Count(), 0u);
  EXPECT_EQ(stats.DropFraction(), 1.0);
  InvariantReport report;
  InvariantChecker::CheckRig(rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- Injector scheduling ---------------------------------------------------------

// Drives a single-box rig through `plan` with a steady open-loop load.
struct InjectedRun {
  uint64_t digest = 0;
  IndexServer::Stats stats;
  FaultInjector::Stats fault_stats;
};

InjectedRun RunWithPlan(const FaultPlan& plan, SimDuration horizon = 4 * kSecond) {
  Simulator sim;
  IndexNodeOptions options;
  auto rig = std::make_unique<IndexNodeRig>(&sim, options, "m0");
  FaultInjector injector(&sim, plan, rig.get());
  injector.Arm();
  Rng trace_rng(2017);
  auto trace = GenerateTrace(TraceSpec{}, 4000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/1000, Rng(7),
                        [&rig](const QueryWork& work, SimTime) {
                          rig->server().SubmitQuery(work);
                        });
  client.Run(0, horizon);
  sim.RunUntilEmpty();
  InjectedRun run;
  run.digest = rig->server().stats().latency_ms.Digest();
  run.stats = rig->server().stats();
  run.fault_stats = injector.stats();
  InvariantReport report;
  InvariantChecker::CheckRig(*rig, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  return run;
}

TEST(FaultInjectionTest, DisabledPlanIsBitIdenticalToNoInjector) {
  // The hard contract: constructing + arming an injector with a disabled plan
  // must not perturb the run at all.
  const InjectedRun armed = RunWithPlan(FaultPlan{});
  EXPECT_EQ(armed.fault_stats.injected, 0);

  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  Rng trace_rng(2017);
  auto trace = GenerateTrace(TraceSpec{}, 4000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/1000, Rng(7),
                        [&rig](const QueryWork& work, SimTime) {
                          rig.server().SubmitQuery(work);
                        });
  client.Run(0, 4 * kSecond);
  sim.RunUntilEmpty();
  EXPECT_EQ(armed.digest, rig.server().stats().latency_ms.Digest());
}

TEST(FaultInjectionTest, CrashWindowDropsAndRecovers) {
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 0, 1.0, 1.0, 1.0});
  const InjectedRun run = RunWithPlan(plan);
  EXPECT_EQ(run.fault_stats.injected, 1);
  EXPECT_EQ(run.fault_stats.recovered, 1);
  EXPECT_GT(run.stats.dropped_crash, 0);   // queries died in / arrived into the window
  EXPECT_GT(run.stats.completed, 0);       // traffic resumed after restart
  EXPECT_EQ(run.stats.completions_while_crashed, 0);
}

TEST(FaultInjectionTest, DiskDegradeWindowRaisesTailThenRecovers) {
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kDiskDegrade, 0, 1.0, 1.0, 40.0});
  const InjectedRun degraded = RunWithPlan(plan);
  const InjectedRun healthy = RunWithPlan(FaultPlan{});
  EXPECT_EQ(degraded.fault_stats.injected, 1);
  EXPECT_EQ(degraded.fault_stats.recovered, 1);
  EXPECT_GT(degraded.stats.latency_ms.P99(), healthy.stats.latency_ms.P99());
  // Recovery restores the multiplier: the run drains with normal service.
  EXPECT_GT(degraded.stats.completed, 0);
}

TEST(FaultInjectionTest, StragglerThreadsAreKilledAtRecovery) {
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kCpuStraggler, 0, 0.001, 0.01, 8.0});
  FaultInjector injector(&sim, plan, &rig);
  injector.Arm();
  sim.RunUntil(FromMillis(5));  // inside the window
  EXPECT_EQ(injector.stats().injected, 1);
  sim.RunUntil(FromMillis(20));  // past recovery
  EXPECT_EQ(injector.stats().recovered, 1);
  EXPECT_TRUE(rig.machine().CheckInvariants().ok());
}

TEST(FaultInjectionTest, LinkFaultOnSingleBoxIsSkipped) {
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kLinkDegrade, 0, 0.001, 0.01, 0.5});
  FaultInjector injector(&sim, plan, &rig);
  injector.Arm();
  sim.RunUntil(FromMillis(20));
  EXPECT_EQ(injector.stats().injected, 0);
  EXPECT_EQ(injector.stats().skipped, 1);
}

TEST(FaultInjectionTest, DestructionCancelsPendingFaults) {
  // Tearing the injector down mid-plan must remove its scheduled events; the
  // rig then runs to the horizon unfaulted. Under SimSan a leaked handle
  // firing into a freed injector aborts, so this doubles as a lifetime test.
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  {
    FaultPlan plan;
    plan.enabled = true;
    plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 0, 1.0, 1.0, 1.0});
    FaultInjector injector(&sim, plan, &rig);
    injector.Arm();
  }  // destroyed before the crash fires
  rig.server().SubmitQuery(MakeQuery(1));
  sim.RunUntil(3 * kSecond);
  EXPECT_FALSE(rig.crashed());
  EXPECT_EQ(rig.server().stats().completed, 1);
}

// --- Cluster routing view ---------------------------------------------------------

TEST(FaultInjectionTest, ClusterCrashKeepsRoutingViewInSync) {
  Simulator sim;
  ClusterOptions options;
  options.topology = ClusterTopology{3, 2, 1};
  Cluster cluster(&sim, options);
  FaultPlan plan;
  plan.enabled = true;
  plan.events.push_back(FaultEvent{FaultKind::kNodeCrash, 1, 0.1, 0.2, 1.0});
  FaultInjector injector(&sim, plan, &cluster);
  injector.Arm();

  Rng trace_rng(2017);
  auto trace = GenerateTrace(TraceSpec{}, 2000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/2000, Rng(7),
                        [&cluster](const QueryWork& work, SimTime) {
                          cluster.SubmitQuery(work);
                        });
  client.Run(0, kSecond / 2);

  sim.RunUntil(FromMillis(200));  // inside the crash window
  EXPECT_TRUE(cluster.NodeCrashed(1));
  EXPECT_TRUE(cluster.index_node(1).crashed());
  InvariantReport mid;
  InvariantChecker::CheckCluster(cluster, /*expect_drained=*/false, &mid);
  EXPECT_TRUE(mid.ok()) << mid.ToString();

  sim.RunUntilEmpty();
  EXPECT_FALSE(cluster.NodeCrashed(1));
  EXPECT_GT(cluster.queries_degraded(), 0);  // 1-of-3 leaves missing: degraded coverage
  EXPECT_GT(cluster.queries_completed(), 0);
  InvariantReport report;
  InvariantChecker::CheckCluster(cluster, /*expect_drained=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace perfiso
