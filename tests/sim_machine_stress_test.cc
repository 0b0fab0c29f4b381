// Fuzz/stress: random sequences of scheduler operations must preserve the
// machine's internal invariants and its accounting bounds. This is the
// failure-injection net under the blind-isolation control loop, which churns
// affinity masks constantly in production.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {
namespace {

class MachineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MachineFuzzTest, RandomOpsPreserveInvariants) {
  Simulator sim;
  MachineSpec spec;
  spec.num_cores = 8;
  spec.quantum = FromMillis(3);
  spec.context_switch = FromMicros(1);
  spec.throttle_interval = FromMillis(10);
  SimMachine machine(&sim, spec, "fuzz");
  Rng rng(GetParam());

  std::vector<JobId> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(machine.CreateJob("job" + std::to_string(i)));
  }
  std::vector<ThreadId> threads;

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 8));
    const JobId job = jobs[static_cast<size_t>(rng.UniformInt(0, 2))];
    switch (op) {
      case 0:
      case 1: {  // spawn a finite burst
        const SimDuration work = FromMicros(rng.Uniform(10, 4000));
        const TenantClass tenant =
            rng.Bernoulli(0.5) ? TenantClass::kPrimary : TenantClass::kSecondary;
        threads.push_back(machine.SpawnThread(tenant, job, work, nullptr));
        break;
      }
      case 2: {  // spawn a loop thread
        threads.push_back(machine.SpawnLoopThread(TenantClass::kSecondary, job));
        break;
      }
      case 3: {  // kill a random thread (may already be dead: both paths ok)
        if (!threads.empty()) {
          const auto victim = threads[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(threads.size()) - 1))];
          (void)machine.KillThread(victim);
        }
        break;
      }
      case 4: {  // random affinity
        CpuSet mask = CpuSet::FromMask64(rng.Next() & 0xFF);
        if (mask.Empty()) {
          mask = CpuSet::FirstN(8);
        }
        ASSERT_TRUE(machine.SetJobAffinity(job, mask).ok());
        break;
      }
      case 5: {  // rate cap on/off
        const double cap = rng.Bernoulli(0.5) ? rng.Uniform(0.05, 0.9) : 0.0;
        ASSERT_TRUE(machine.SetJobCpuRateCap(job, cap).ok());
        break;
      }
      case 6: {  // suspend/resume
        ASSERT_TRUE(machine.SetJobSuspended(job, rng.Bernoulli(0.5)).ok());
        break;
      }
      case 7: {  // kill a whole job
        if (rng.Bernoulli(0.1)) {
          (void)machine.KillJob(job);
          // Dead jobs stay dead; replace with a fresh one.
          for (auto& slot : jobs) {
            if (slot == job) {
              slot = machine.CreateJob("respawn");
            }
          }
        }
        break;
      }
      default: {  // advance time
        sim.RunUntil(sim.Now() + FromMicros(rng.Uniform(10, 2000)));
        break;
      }
    }
    ASSERT_TRUE(machine.CheckInvariants().ok())
        << "step " << step << ": " << machine.CheckInvariants().ToString();
  }

  // Drain: kill everything, run to idle, and re-verify.
  for (JobId job : jobs) {
    (void)machine.KillJob(job);
  }
  sim.RunUntil(sim.Now() + kSecond);
  ASSERT_TRUE(machine.CheckInvariants().ok());
  EXPECT_EQ(machine.IdleCount(), 8);
  EXPECT_LE(machine.metrics().TotalBusy(), 8 * sim.Now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(MachineStressTest, SuspendResumeChurnLosesNoCpuAccounting) {
  Simulator sim;
  MachineSpec spec;
  spec.num_cores = 4;
  spec.context_switch = 0;
  SimMachine machine(&sim, spec, "m0");
  const JobId job = machine.CreateJob("sec");
  for (int i = 0; i < 4; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  // Suspend for 1 ms out of every 2 ms, 100 times.
  for (int cycle = 0; cycle < 100; ++cycle) {
    sim.Schedule(cycle * FromMillis(2), [&] {
      ASSERT_TRUE(machine.SetJobSuspended(job, true).ok());
    });
    sim.Schedule(cycle * FromMillis(2) + FromMillis(1), [&] {
      ASSERT_TRUE(machine.SetJobSuspended(job, false).ok());
    });
  }
  sim.RunUntil(100 * FromMillis(2));
  // Exactly half the wall time on all 4 cores.
  EXPECT_EQ(*machine.JobCpuTime(job), 4 * FromMillis(100));
  ASSERT_TRUE(machine.CheckInvariants().ok());
}

TEST(MachineStressTest, RepeatedAffinityFlappingUnderLoad) {
  Simulator sim;
  MachineSpec spec;
  spec.num_cores = 8;
  spec.quantum = FromMillis(5);
  spec.context_switch = 0;
  SimMachine machine(&sim, spec, "m0");
  const JobId job = machine.CreateJob("sec");
  for (int i = 0; i < 16; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  // Flap between disjoint masks every 100 us for 100 ms.
  for (int i = 0; i < 1000; ++i) {
    sim.Schedule(i * FromMicros(100), [&, i] {
      const CpuSet mask = i % 2 == 0 ? CpuSet::FirstN(4) : CpuSet::Range(4, 8);
      ASSERT_TRUE(machine.SetJobAffinity(job, mask).ok());
    });
  }
  sim.RunUntil(FromMillis(100));
  // 4 allowed cores at all times, fully consumed.
  EXPECT_EQ(*machine.JobCpuTime(job), 4 * FromMillis(100));
  EXPECT_GT(machine.metrics().preemptions, 900);
  ASSERT_TRUE(machine.CheckInvariants().ok());
}

}  // namespace
}  // namespace perfiso
