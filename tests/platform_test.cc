#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include "src/platform/linux_platform.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/workload/bullies.h"

namespace perfiso {
namespace {

// --- SimPlatform ---------------------------------------------------------------

struct SimRig {
  Simulator sim;
  MachineSpec spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimPlatform> platform;
  JobId job;

  SimRig() {
    spec.num_cores = 8;
    spec.context_switch = 0;
    machine = std::make_unique<SimMachine>(&sim, spec, "m0");
    platform = std::make_unique<SimPlatform>(machine.get(), nullptr);
    job = machine->CreateJob("secondary");
    platform->AddSecondaryJob(job);
  }
};

TEST(SimPlatformTest, IdleCoresReflectsMachine) {
  SimRig rig;
  EXPECT_EQ(rig.platform->IdleCores().Count(), 8);
  rig.machine->SpawnLoopThread(TenantClass::kSecondary, rig.job);
  rig.sim.RunUntil(kMillisecond);
  EXPECT_EQ(rig.platform->IdleCores().Count(), 7);
}

TEST(SimPlatformTest, EmptyAffinitySuspendsSecondary) {
  SimRig rig;
  CpuBully bully(rig.machine.get(), rig.job, 4);
  rig.sim.RunUntil(kMillisecond);
  ASSERT_EQ(rig.platform->IdleCores().Count(), 4);
  ASSERT_TRUE(rig.platform->SetSecondaryAffinity(CpuSet()).ok());
  EXPECT_EQ(rig.platform->IdleCores().Count(), 8);
  EXPECT_TRUE(*rig.machine->JobSuspended(rig.job));
  // A non-empty mask resumes.
  ASSERT_TRUE(rig.platform->SetSecondaryAffinity(CpuSet::FirstN(2)).ok());
  EXPECT_FALSE(*rig.machine->JobSuspended(rig.job));
  rig.sim.RunUntil(2 * kMillisecond);
  EXPECT_EQ(rig.platform->IdleCores().Count(), 6);
}

TEST(SimPlatformTest, AffinityAppliesToAllSecondaryJobs) {
  SimRig rig;
  const JobId job2 = rig.machine->CreateJob("secondary2");
  rig.platform->AddSecondaryJob(job2);
  rig.machine->SpawnLoopThread(TenantClass::kSecondary, rig.job);
  rig.machine->SpawnLoopThread(TenantClass::kSecondary, job2);
  ASSERT_TRUE(rig.platform->SetSecondaryAffinity(CpuSet::Single(7)).ok());
  EXPECT_EQ(*rig.machine->JobAffinity(rig.job), CpuSet::Single(7));
  EXPECT_EQ(*rig.machine->JobAffinity(job2), CpuSet::Single(7));
}

TEST(SimPlatformTest, KillSecondaryRemovesThreads) {
  SimRig rig;
  CpuBully bully(rig.machine.get(), rig.job, 4);
  rig.sim.RunUntil(kMillisecond);
  ASSERT_TRUE(rig.platform->KillSecondary().ok());
  EXPECT_EQ(*rig.machine->JobLiveThreads(rig.job), 0);
}

TEST(SimPlatformTest, IoKnobsUnavailableWithoutScheduler) {
  SimRig rig;
  EXPECT_EQ(rig.platform->SetIoPriority(1, 0).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(rig.platform->IoOpsCompleted(1).status().code(), StatusCode::kUnimplemented);
}

TEST(SimPlatformTest, EgressBucketInstalledAndCleared) {
  SimRig rig;
  EXPECT_FALSE(rig.platform->egress_bucket().has_value());
  ASSERT_TRUE(rig.platform->SetEgressRateCap(1e6).ok());
  ASSERT_TRUE(rig.platform->egress_bucket().has_value());
  EXPECT_DOUBLE_EQ(rig.platform->egress_bucket()->rate_per_sec(), 1e6);
  ASSERT_TRUE(rig.platform->SetEgressRateCap(0).ok());
  EXPECT_FALSE(rig.platform->egress_bucket().has_value());
}

// --- LinuxPlatform ---------------------------------------------------------------

TEST(LinuxPlatformTest, ParseProcStatExtractsPerCpuLines) {
  const std::string text =
      "cpu  100 0 50 800 20 0 5 0 0 0\n"
      "cpu0 60 0 30 400 10 0 3 0 0 0\n"
      "cpu1 40 0 20 400 10 0 2 0 0 0\n"
      "intr 12345\n";
  auto samples = LinuxPlatform::ParseProcStat(text);
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 2u);
  EXPECT_EQ((*samples)[0].idle, 410);  // idle + iowait
  EXPECT_EQ((*samples)[0].total, 503);
  EXPECT_EQ((*samples)[1].idle, 410);
}

TEST(LinuxPlatformTest, ParseProcStatRejectsGarbage) {
  EXPECT_FALSE(LinuxPlatform::ParseProcStat("nonsense\n").ok());
}

TEST(LinuxPlatformTest, IdleFromSamplesThreshold) {
  using Sample = LinuxPlatform::CpuSample;
  const std::vector<Sample> prev = {{1000, 2000}, {1000, 2000}, {1000, 2000}};
  // cpu0: fully idle since; cpu1: 50% idle; cpu2: no time elapsed.
  const std::vector<Sample> curr = {{1100, 2100}, {1050, 2100}, {1000, 2000}};
  const CpuSet idle = LinuxPlatform::IdleFromSamples(prev, curr, 0.9);
  EXPECT_TRUE(idle.Test(0));
  EXPECT_FALSE(idle.Test(1));
  EXPECT_TRUE(idle.Test(2));  // quiescent CPU counts as idle
}

TEST(LinuxPlatformTest, ReadsRealProcStat) {
  LinuxPlatform platform;
  // First call has no baseline: everything reports idle.
  const CpuSet first = platform.IdleCores();
  EXPECT_EQ(first.Count(), platform.NumCores());
  // Second call is delta-based and must not exceed the core count.
  const CpuSet second = platform.IdleCores();
  EXPECT_LE(second.Count(), platform.NumCores());
}

TEST(LinuxPlatformTest, NumCoresAndMemoryPositive) {
  LinuxPlatform platform;
  EXPECT_GE(platform.NumCores(), 1);
  auto memory = platform.FreeMemoryBytes();
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  EXPECT_GT(*memory, 0);
}

TEST(LinuxPlatformTest, MonotonicClockAdvances) {
  LinuxPlatform platform;
  const SimTime a = platform.NowNs();
  const SimTime b = platform.NowNs();
  EXPECT_GE(b, a);
}

TEST(LinuxPlatformTest, AffinityAppliedToChildProcess) {
  // Spawn a sleeping child, restrict it to CPU 0 via the platform, and
  // verify with sched_getaffinity. This is the real syscall path the paper's
  // repro hint calls out.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::sleep(30);
    ::_exit(0);
  }
  LinuxPlatform platform;
  platform.AddSecondaryPid(child);
  const Status status = platform.SetSecondaryAffinity(CpuSet::Single(0));
  EXPECT_TRUE(status.ok()) << status.ToString();
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(child, sizeof(mask), &mask), 0);
  EXPECT_TRUE(CPU_ISSET(0, &mask));
  EXPECT_EQ(CPU_COUNT(&mask), 1);
  // Suspend (empty mask) and resume.
  EXPECT_TRUE(platform.SetSecondaryAffinity(CpuSet()).ok());
  EXPECT_TRUE(platform.SetSecondaryAffinity(CpuSet::Single(0)).ok());
  // Kill and reap.
  EXPECT_TRUE(platform.KillSecondary().ok());
  int wait_status = 0;
  EXPECT_EQ(::waitpid(child, &wait_status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(wait_status));
}

TEST(LinuxPlatformTest, UnsupportedKnobsReportUnimplemented) {
  LinuxPlatform platform;
  EXPECT_EQ(platform.SetIoPriority(1, 0).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(platform.SetIoIopsCap(1, 10).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(platform.SetIoBandwidthCap(1, 10).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(platform.SetEgressRateCap(10).code(), StatusCode::kUnimplemented);
}

TEST(LinuxPlatformTest, CpuRateCapWithoutCgroupIsUnavailable) {
  LinuxPlatform platform;
  EXPECT_EQ(platform.SetSecondaryCpuRateCap(0.5).code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace perfiso
