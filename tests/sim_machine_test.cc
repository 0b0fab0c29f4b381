#include "src/sim/machine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace perfiso {
namespace {

// A small spec with zero context-switch cost for exact timing arithmetic.
MachineSpec TinySpec(int cores, SimDuration quantum = FromMillis(10)) {
  MachineSpec spec;
  spec.num_cores = cores;
  spec.quantum = quantum;
  spec.context_switch = 0;
  spec.throttle_interval = FromMillis(20);
  return spec;
}

TEST(SimMachineTest, AllCoresIdleInitially) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(4), "m0");
  EXPECT_EQ(machine.IdleCount(), 4);
  EXPECT_EQ(machine.IdleMask(), CpuSet::FirstN(4));
}

TEST(SimMachineTest, SingleThreadRunsToCompletion) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1), "m0");
  SimTime done_at = -1;
  machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(3),
                      [&](SimTime now) { done_at = now; });
  EXPECT_EQ(machine.IdleCount(), 0);  // dispatched immediately
  sim.RunUntilEmpty();
  EXPECT_EQ(done_at, FromMillis(3));
  EXPECT_EQ(machine.IdleCount(), 1);
  EXPECT_EQ(machine.metrics().busy_ns[static_cast<int>(TenantClass::kPrimary)], FromMillis(3));
}

TEST(SimMachineTest, ContextSwitchChargedToOs) {
  Simulator sim;
  MachineSpec spec = TinySpec(1);
  spec.context_switch = FromMicros(2);
  SimMachine machine(&sim, spec, "m0");
  SimTime done_at = -1;
  machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(1),
                      [&](SimTime now) { done_at = now; });
  sim.RunUntilEmpty();
  EXPECT_EQ(done_at, FromMillis(1) + FromMicros(2));
  EXPECT_EQ(machine.metrics().busy_ns[static_cast<int>(TenantClass::kOs)], FromMicros(2));
  EXPECT_EQ(machine.metrics().busy_ns[static_cast<int>(TenantClass::kPrimary)], FromMillis(1));
}

TEST(SimMachineTest, RoundRobinOnOneCore) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1, FromMillis(10)), "m0");
  SimTime done_a = -1;
  SimTime done_b = -1;
  machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(15),
                      [&](SimTime now) { done_a = now; });
  machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(15),
                      [&](SimTime now) { done_b = now; });
  sim.RunUntilEmpty();
  // a: [0,10) + [20,25); b: [10,20) + [25,30).
  EXPECT_EQ(done_a, FromMillis(25));
  EXPECT_EQ(done_b, FromMillis(30));
}

TEST(SimMachineTest, WakeTakesIdleCoreImmediately) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(2), "m0");
  machine.SpawnLoopThread(TenantClass::kSecondary, JobId{});
  SimTime done_at = -1;
  sim.Schedule(FromMillis(5), [&] {
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(1),
                        [&](SimTime now) { done_at = now; });
  });
  sim.RunUntil(FromMillis(100));
  EXPECT_EQ(done_at, FromMillis(6));  // no queueing: second core was idle
  const auto& delays = machine.metrics().primary_sched_delay_us;
  ASSERT_EQ(delays.Count(), 1u);
  EXPECT_EQ(delays.Max(), 0);
}

TEST(SimMachineTest, NoWakePreemptionOfEqualPriority) {
  // The core mechanism of the paper: a woken thread cannot evict a running
  // CPU-bound thread; it waits for the quantum to expire.
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1, FromMillis(10)), "m0");
  machine.SpawnLoopThread(TenantClass::kSecondary, JobId{});
  SimTime done_at = -1;
  sim.Schedule(FromMillis(3), [&] {
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(1),
                        [&](SimTime now) { done_at = now; });
  });
  sim.RunUntil(FromMillis(100));
  // Waits from t=3ms until the hog's quantum ends at t=10ms, then runs 1ms.
  EXPECT_EQ(done_at, FromMillis(11));
  const auto& delays = machine.metrics().primary_sched_delay_us;
  ASSERT_EQ(delays.Count(), 1u);
  EXPECT_EQ(delays.Max(), 7000);  // 7 ms in us
}

TEST(SimMachineTest, QuantumRenewalWithoutWaiters) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("bully");
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  sim.RunUntil(FromMillis(95));
  // Hog runs continuously; renewals must not accumulate context switches.
  EXPECT_EQ(*machine.JobCpuTime(job), FromMillis(95));
  EXPECT_EQ(machine.metrics().busy_ns[static_cast<int>(TenantClass::kOs)], 0);
}

TEST(SimMachineTest, JobAffinityRestrictsPlacement) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(2), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobAffinity(job, CpuSet::Single(1)).ok());
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  sim.RunUntil(FromMillis(5));
  EXPECT_EQ(machine.IdleMask(), CpuSet::Single(0));  // core 1 busy, core 0 idle
}

TEST(SimMachineTest, ShrinkingAffinityPreemptsImmediately) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(2), "m0");
  const JobId job = machine.CreateJob("sec");
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  sim.RunUntil(FromMillis(5));
  EXPECT_FALSE(machine.IdleMask().Test(0));  // hog took the lowest idle core
  ASSERT_TRUE(machine.SetJobAffinity(job, CpuSet::Single(1)).ok());
  EXPECT_TRUE(machine.IdleMask().Test(0));
  EXPECT_FALSE(machine.IdleMask().Test(1));
  EXPECT_GE(machine.metrics().preemptions, 1);
  sim.RunUntil(FromMillis(10));
  EXPECT_EQ(*machine.JobCpuTime(job), FromMillis(10));  // no CPU time lost
}

TEST(SimMachineTest, GrowingAffinityPicksUpQueuedThreads) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(2, FromMillis(50)), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobAffinity(job, CpuSet::Single(0)).ok());
  machine.SpawnLoopThread(TenantClass::kSecondary, job);  // hog1, on core 0
  machine.SpawnLoopThread(TenantClass::kSecondary, job);  // hog2, queues behind hog1
  sim.RunUntil(FromMillis(5));
  EXPECT_TRUE(machine.IdleMask().Test(1));
  ASSERT_TRUE(machine.SetJobAffinity(job, CpuSet::FirstN(2)).ok());
  EXPECT_EQ(machine.IdleCount(), 0);  // hog2 stolen onto core 1 immediately
  sim.RunUntil(FromMillis(10));
  EXPECT_EQ(*machine.JobCpuTime(job), FromMillis(15));  // 10 + 5
}

TEST(SimMachineTest, EmptyAffinityMaskRejected) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(2), "m0");
  const JobId job = machine.CreateJob("sec");
  EXPECT_FALSE(machine.SetJobAffinity(job, CpuSet()).ok());
  EXPECT_FALSE(machine.SetJobAffinity(job, CpuSet::Range(10, 12)).ok());  // outside machine
}

TEST(SimMachineTest, RateCapEnforcesDutyCycle) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1), "m0");  // throttle interval 20 ms
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, 0.25).ok());
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  sim.RunUntil(kSecond);
  // 25% of one core: 5 ms per 20 ms interval, 50 intervals.
  EXPECT_EQ(*machine.JobCpuTime(job), FromMillis(250));
}

TEST(SimMachineTest, RateCapAppliesAcrossCores) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(4), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, 0.5).ok());
  for (int i = 0; i < 4; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  sim.RunUntil(kSecond);
  // 50% of 4 cores = 2 core-seconds per second.
  EXPECT_NEAR(ToSeconds(*machine.JobCpuTime(job)), 2.0, 0.05);
}

TEST(SimMachineTest, ThrottledJobFreesCoresForOthers) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1, FromMillis(100)), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, 0.10).ok());  // 2 ms per 20 ms
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  SimTime done_at = -1;
  sim.Schedule(FromMillis(3), [&] {
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(1),
                        [&](SimTime now) { done_at = now; });
  });
  sim.RunUntil(FromMillis(100));
  // Hog exhausts its 2 ms budget at t=2 ms and the core goes idle, so the
  // primary worker dispatches immediately at t=3 ms despite the 100 ms quantum.
  EXPECT_EQ(done_at, FromMillis(4));
}

TEST(SimMachineTest, RemovingRateCapUnthrottles) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, 0.05).ok());
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  sim.RunUntil(FromMillis(100));
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, 0).ok());
  const SimDuration before = *machine.JobCpuTime(job);
  sim.RunUntil(FromMillis(200));
  EXPECT_EQ(*machine.JobCpuTime(job) - before, FromMillis(100));  // full speed
}

TEST(SimMachineTest, WorkStealingWhenCoreIdles) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(2, FromMillis(50)), "m0");
  machine.SpawnLoopThread(TenantClass::kSecondary, JobId{});  // hog0, on core 0
  const ThreadId hog1 = machine.SpawnLoopThread(TenantClass::kSecondary, JobId{});
  SimTime done_at = -1;
  sim.Schedule(FromMillis(1), [&] {
    // Queues on core 0 (lowest id wins the shortest-queue tie).
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(1),
                        [&](SimTime now) { done_at = now; });
  });
  sim.Schedule(FromMillis(2), [&] { ASSERT_TRUE(machine.KillThread(hog1).ok()); });
  sim.RunUntil(FromMillis(40));
  // The worker queued behind hog0 on core 0; when hog1 died at t=2, core 1
  // went idle and stole the worker from core 0's queue.
  EXPECT_EQ(done_at, FromMillis(3));
  EXPECT_EQ(machine.metrics().steals, 1);
}

TEST(SimMachineTest, StealReachesQueuesPastTheFirstMaskWord) {
  // 130 cores: the queue masks span three 64-bit words. Every core runs a
  // hog, and the only queued threads sit on cores 64, 128 and 129.
  Simulator sim;
  SimMachine machine(&sim, TinySpec(130, kSecond), "m0");
  std::vector<ThreadId> hogs;
  for (int i = 0; i < 130; ++i) {
    hogs.push_back(machine.SpawnLoopThread(TenantClass::kSecondary, JobId{}));
  }
  const JobId pinned = machine.CreateJob("pinned");  // never allowed on core 2
  const JobId a = machine.CreateJob("a");
  const JobId b = machine.CreateJob("b");
  ASSERT_TRUE(machine.SetJobAffinity(pinned, CpuSet::Single(129)).ok());
  ASSERT_TRUE(machine.SetJobAffinity(a, CpuSet::Single(128)).ok());
  ASSERT_TRUE(machine.SetJobAffinity(b, CpuSet::Single(64)).ok());
  SimTime a_done = -1;
  SimTime b_done = -1;
  machine.SpawnThread(TenantClass::kPrimary, pinned, FromMillis(1), nullptr);  // oldest
  sim.Schedule(FromMillis(1), [&] {
    machine.SpawnThread(TenantClass::kPrimary, a, FromMillis(1),
                        [&](SimTime now) { a_done = now; });
  });
  sim.Schedule(FromMillis(2), [&] {
    machine.SpawnThread(TenantClass::kPrimary, b, FromMillis(1),
                        [&](SimTime now) { b_done = now; });
    // Core 2 is busy, so widening the masks steals nothing yet.
    ASSERT_TRUE(machine.SetJobAffinity(a, CpuSet::Single(2) | CpuSet::Single(128)).ok());
    ASSERT_TRUE(machine.SetJobAffinity(b, CpuSet::Single(2) | CpuSet::Single(64)).ok());
    EXPECT_EQ(machine.metrics().steals, 0);
    EXPECT_TRUE(machine.CheckInvariants().ok()) << machine.CheckInvariants().message();
  });
  // Core 2 goes idle at t=3: it steals a's thread from core 128 (older than
  // b's on core 64), then b's when that finishes; the pinned one stays.
  sim.Schedule(FromMillis(3), [&] { ASSERT_TRUE(machine.KillThread(hogs[2]).ok()); });
  sim.RunUntil(FromMillis(10));
  EXPECT_EQ(a_done, FromMillis(4));
  EXPECT_EQ(b_done, FromMillis(5));
  EXPECT_EQ(machine.metrics().steals, 2);
  EXPECT_EQ(*machine.JobLiveThreads(pinned), 1);
  EXPECT_TRUE(machine.IdleMask().Test(2));
  EXPECT_TRUE(machine.CheckInvariants().ok()) << machine.CheckInvariants().message();
}

TEST(SimMachineTest, ThreadsRetireInAnyOrder) {
  // One job's ten threads each run on their own core and retire in an order
  // unrelated to their spawn order, by completion or by kill.
  Simulator sim;
  SimMachine machine(&sim, TinySpec(10, kSecond), "m0");
  const JobId job = machine.CreateJob("job");
  int live = 10;
  auto retired = [&] {
    --live;
    EXPECT_EQ(*machine.JobLiveThreads(job), live);
    EXPECT_TRUE(machine.CheckInvariants().ok()) << machine.CheckInvariants().message();
  };
  // Work in ms; the threads at 2, 7 and 9 are killed before they finish.
  const std::vector<int> work_ms = {7, 3, 100, 1, 6, 4, 9, 100, 2, 100};
  std::vector<ThreadId> tids;
  for (int ms : work_ms) {
    tids.push_back(machine.SpawnThread(TenantClass::kPrimary, job, FromMillis(ms),
                                       [&](SimTime) { retired(); }));
  }
  auto kill_at = [&](size_t index, SimTime at) {
    sim.Schedule(at, [&, index] {
      ASSERT_TRUE(machine.KillThread(tids[index]).ok());
      retired();
    });
  };
  kill_at(7, FromMicros(500));
  kill_at(2, FromMicros(2500));
  kill_at(9, FromMicros(4500));
  sim.RunUntilEmpty();
  EXPECT_EQ(live, 0);
  // A recycled slot joins the job at the end of its list.
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  EXPECT_EQ(*machine.JobLiveThreads(job), 1);
  EXPECT_TRUE(machine.CheckInvariants().ok()) << machine.CheckInvariants().message();
}

TEST(SimMachineTest, KillJobTerminatesAllThreads) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(4), "m0");
  const JobId job = machine.CreateJob("sec");
  for (int i = 0; i < 8; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  sim.RunUntil(FromMillis(5));
  EXPECT_EQ(machine.IdleCount(), 0);
  EXPECT_EQ(*machine.JobLiveThreads(job), 8);
  ASSERT_TRUE(machine.KillJob(job).ok());
  EXPECT_EQ(machine.IdleCount(), 4);
  EXPECT_EQ(*machine.JobLiveThreads(job), 0);
  // CPU accounting is preserved after death.
  EXPECT_EQ(*machine.JobCpuTime(job), FromMillis(20));
}

TEST(SimMachineTest, JobCpuTimeIncludesInFlightSlice) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1, kSecond), "m0");
  const JobId job = machine.CreateJob("sec");
  machine.SpawnLoopThread(TenantClass::kSecondary, job);
  sim.RunUntil(FromMillis(7));  // mid-slice
  EXPECT_EQ(*machine.JobCpuTime(job), FromMillis(7));
}

TEST(SimMachineTest, BurstMetricCountsReadyThreads) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(4), "m0");
  for (int i = 0; i < 15; ++i) {
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMicros(100), nullptr);
  }
  sim.RunUntilEmpty();
  EXPECT_GE(machine.metrics().max_ready_burst_5us, 15);
}

TEST(SimMachineTest, MemoryAccounting) {
  Simulator sim;
  MachineSpec spec = TinySpec(1);
  spec.memory_bytes = 1000;
  SimMachine machine(&sim, spec, "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.AddJobMemory(job, 600).ok());
  EXPECT_EQ(machine.FreeMemoryBytes(), 400);
  EXPECT_EQ(*machine.JobMemory(job), 600);
  EXPECT_FALSE(machine.AddJobMemory(job, -700).ok());  // would go negative
  ASSERT_TRUE(machine.KillJob(job).ok());
  EXPECT_EQ(machine.FreeMemoryBytes(), 1000);  // killing releases memory
}

TEST(SimMachineTest, CompletionCallbackCanSpawn) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1), "m0");
  SimTime chained_done = -1;
  machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(1), [&](SimTime) {
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(2),
                        [&](SimTime now) { chained_done = now; });
  });
  sim.RunUntilEmpty();
  EXPECT_EQ(chained_done, FromMillis(3));
}

TEST(SimMachineTest, InvalidIdsAreErrors) {
  Simulator sim;
  SimMachine machine(&sim, TinySpec(1), "m0");
  EXPECT_FALSE(machine.SetJobAffinity(JobId{5}, CpuSet::FirstN(1)).ok());
  EXPECT_FALSE(machine.KillJob(JobId{}).ok());
  EXPECT_FALSE(machine.KillThread(ThreadId{99}).ok());
  EXPECT_FALSE(machine.JobCpuTime(JobId{-1}).ok());
  EXPECT_FALSE(machine.SetJobCpuRateCap(JobId{0}, 0.5).ok());  // no job created yet
}

}  // namespace
}  // namespace perfiso
