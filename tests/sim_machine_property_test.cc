// Property-style sweeps over the scheduler: conservation of CPU time,
// work-conservation without affinity restrictions, rate-cap accuracy, and a
// pinned churn run whose exact scheduling counters must not move.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {
namespace {

MachineSpec SpecWith(int cores, SimDuration quantum) {
  MachineSpec spec;
  spec.num_cores = cores;
  spec.quantum = quantum;
  spec.context_switch = 0;
  spec.throttle_interval = FromMillis(20);
  return spec;
}

// --- Work conservation: N loop threads on C cores use min(N, C) * T of CPU ---

class WorkConservationTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WorkConservationTest, LoopThreadsSaturateExactly) {
  const int cores = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  Simulator sim;
  SimMachine machine(&sim, SpecWith(cores, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("hogs");
  for (int i = 0; i < threads; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  const SimDuration window = FromMillis(200);
  sim.RunUntil(window);
  const SimDuration expected = static_cast<SimDuration>(std::min(cores, threads)) * window;
  EXPECT_EQ(*machine.JobCpuTime(job), expected);
  EXPECT_EQ(machine.IdleCount(), std::max(0, cores - threads));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkConservationTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 48),
                                            ::testing::Values(1, 3, 8, 48, 64)));

// --- CPU-time conservation under random fan-out workloads ---------------------

class ConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationTest, BusyTimeEqualsWorkSubmitted) {
  Simulator sim;
  SimMachine machine(&sim, SpecWith(8, FromMillis(5)), "m0");
  Rng rng(GetParam());
  SimDuration total_work = 0;
  int completions = 0;
  int spawns = 0;

  // Each completion may fan out into more threads, like a query pipeline.
  std::function<void(int)> spawn_tree = [&](int depth) {
    const SimDuration work = FromMicros(rng.Uniform(50, 3000));
    total_work += work;
    ++spawns;
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, work, [&, depth](SimTime) {
      ++completions;
      if (depth < 3) {
        const int children = static_cast<int>(rng.UniformInt(0, 3));
        for (int c = 0; c < children; ++c) {
          spawn_tree(depth + 1);
        }
      }
    });
  };
  for (int i = 0; i < 40; ++i) {
    sim.Schedule(FromMicros(rng.Uniform(0, 5000)), [&] { spawn_tree(0); });
  }
  sim.RunUntilEmpty();

  EXPECT_EQ(completions, spawns);
  EXPECT_EQ(machine.metrics().busy_ns[static_cast<int>(TenantClass::kPrimary)], total_work);
  EXPECT_EQ(machine.IdleCount(), 8);
  // Capacity bound: busy cannot exceed cores * elapsed.
  EXPECT_LE(machine.metrics().TotalBusy(), 8 * sim.Now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Rate caps: measured duty cycle matches the configured cap ----------------

class RateCapTest : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(RateCapTest, MeasuredFractionMatchesCap) {
  const double cap = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  constexpr int kCores = 8;
  Simulator sim;
  SimMachine machine(&sim, SpecWith(kCores, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("capped");
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, cap).ok());
  for (int i = 0; i < threads; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  const SimDuration window = 2 * kSecond;
  sim.RunUntil(window);
  const double measured =
      ToSeconds(*machine.JobCpuTime(job)) / (ToSeconds(window) * kCores);
  // The job can use at most min(cap, threads/cores) of the machine; with
  // enough threads it should achieve the cap almost exactly.
  const double achievable = std::min(cap, static_cast<double>(threads) / kCores);
  EXPECT_LE(measured, achievable + 0.02);
  EXPECT_GE(measured, achievable - 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RateCapTest,
                         ::testing::Combine(::testing::Values(0.05, 0.25, 0.45, 0.75),
                                            ::testing::Values(1, 4, 8, 16)));

// --- Affinity sweeps: a restricted job never exceeds its mask's capacity ------

class AffinityCapacityTest : public ::testing::TestWithParam<int> {};

TEST_P(AffinityCapacityTest, RestrictedJobBoundedByMask) {
  const int allowed = GetParam();
  constexpr int kCores = 16;
  Simulator sim;
  SimMachine machine(&sim, SpecWith(kCores, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobAffinity(job, CpuSet::Range(kCores - allowed, kCores)).ok());
  for (int i = 0; i < kCores; ++i) {  // more threads than allowed cores
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  const SimDuration window = FromMillis(500);
  sim.RunUntil(window);
  EXPECT_EQ(*machine.JobCpuTime(job), static_cast<SimDuration>(allowed) * window);
  // Cores outside the mask stay idle.
  EXPECT_EQ(machine.IdleCount(), kCores - allowed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AffinityCapacityTest, ::testing::Values(1, 2, 4, 8, 15));

// --- Dynamic affinity changes never lose or double-count CPU time -------------

class AffinityChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffinityChurnTest, AccountingSurvivesRandomMaskChanges) {
  constexpr int kCores = 8;
  Simulator sim;
  SimMachine machine(&sim, SpecWith(kCores, FromMillis(10)), "m0");
  Rng rng(GetParam());
  const JobId job = machine.CreateJob("sec");
  for (int i = 0; i < kCores; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  // Change the mask every millisecond to a random non-empty subset.
  SimDuration allowed_integral = 0;  // sum over time of allowed core count
  int current_allowed = kCores;
  SimTime last_change = 0;
  for (SimTime t = FromMillis(1); t <= FromMillis(200); t += FromMillis(1)) {
    sim.Schedule(t, [&, t] {
      allowed_integral += (t - last_change) * current_allowed;
      last_change = t;
      CpuSet mask;
      while (mask.Empty()) {
        mask = CpuSet::FromMask64(rng.Next() & ((1u << kCores) - 1));
      }
      current_allowed = mask.Count();
      ASSERT_TRUE(machine.SetJobAffinity(job, mask).ok());
    });
  }
  sim.RunUntil(FromMillis(200));
  allowed_integral += (FromMillis(200) - last_change) * current_allowed;
  // With one hog per core, the job consumes exactly the allowed capacity.
  EXPECT_EQ(*machine.JobCpuTime(job), allowed_integral);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffinityChurnTest, ::testing::Values(11, 22, 33, 44));

// --- Pinned scheduling decisions under blind-isolation churn -------------------
//
// A fixed, seeded run that exercises every scheduling path at once: a 48-thread
// secondary whose job mask flaps between seeded masks (and is now and then
// suspended), seeded primary fan-out bursts, primary jobs pinned to 8-core
// ranges, and a rate-capped job. The expected counters are exact: any change
// to a placement, steal victim or preemption moves at least one of them,
// independently of the end-to-end golden digests. Update them only for a
// deliberate change to the scheduling model.

TEST(SchedulerDecisionPinTest, BlindIsolationChurnIsBitExact) {
  constexpr int kCores = 48;
  MachineSpec spec = SpecWith(kCores, FromMillis(3));
  spec.context_switch = FromMicros(2);
  Simulator sim;
  SimMachine machine(&sim, spec, "m0");
  Rng rng(20180711);

  const JobId secondary = machine.CreateJob("secondary");
  for (int i = 0; i < 48; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, secondary);
  }
  const JobId capped = machine.CreateJob("capped");
  ASSERT_TRUE(machine.SetJobCpuRateCap(capped, 0.1).ok());
  ASSERT_TRUE(machine.SetJobAffinity(capped, CpuSet::Range(8, 40)).ok());
  for (int i = 0; i < 12; ++i) {
    machine.SpawnLoopThread(TenantClass::kOs, capped);
  }

  constexpr int kMasks = 8;
  std::vector<CpuSet> masks;
  for (int i = 0; i < kMasks; ++i) {
    CpuSet mask;
    while (mask.Empty()) {
      mask = CpuSet::FromMask64(rng.Next() & ((uint64_t{1} << kCores) - 1));
    }
    masks.push_back(mask);
  }

  // One primary job per 8-core range [lo, lo + 8).
  std::vector<JobId> pinned;
  for (int lo = 0; lo <= kCores - 8; ++lo) {
    pinned.push_back(machine.CreateJob("pinned"));
    ASSERT_TRUE(machine.SetJobAffinity(pinned.back(), CpuSet::Range(lo, lo + 8)).ok());
  }

  // Primary fan-out: each burst wakes several workers at once, some in a job
  // pinned to a random core range, and some completions spawn a follow-up
  // stage.
  std::function<void(int)> spawn_worker = [&](int depth) {
    const SimDuration work = FromMicros(rng.Uniform(20, 900));
    JobId job;
    if (rng.Bernoulli(0.2)) {
      job = pinned[static_cast<size_t>(rng.UniformInt(0, kCores - 8))];
    }
    machine.SpawnThread(TenantClass::kPrimary, job, work, [&, depth](SimTime) {
      if (depth < 2 && rng.Bernoulli(0.3)) {
        spawn_worker(depth + 1);
      }
    });
  };

  constexpr SimDuration kPoll = FromMicros(250);
  constexpr SimDuration kHorizon = FromMillis(400);
  for (SimTime t = kPoll; t < kHorizon; t += kPoll) {
    sim.Schedule(t, [&] {
      const int burst = static_cast<int>(rng.UniformInt(0, 12));
      for (int i = 0; i < burst; ++i) {
        spawn_worker(0);
      }
      const int64_t op = rng.UniformInt(0, 19);
      if (op == 0) {
        ASSERT_TRUE(machine.SetJobSuspended(secondary, true).ok());
      } else if (op == 1) {
        ASSERT_TRUE(machine.SetJobSuspended(secondary, false).ok());
      } else {
        const auto pick = static_cast<size_t>(rng.UniformInt(0, kMasks - 1));
        ASSERT_TRUE(machine.SetJobAffinity(secondary, masks[pick]).ok());
      }
      const Status invariants = machine.CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    });
  }
  sim.RunUntil(kHorizon);
  ASSERT_TRUE(machine.CheckInvariants().ok());
  machine.SettleAccounting();

  const SimMachine::Metrics& m = machine.metrics();
  EXPECT_EQ(m.dispatches, 20398);
  EXPECT_EQ(m.preemptions, 6643);
  EXPECT_EQ(m.steals, 1158);
  EXPECT_EQ(m.busy_ns[0], 6120715564);
  EXPECT_EQ(m.busy_ns[1], 3422869284);
  EXPECT_EQ(m.busy_ns[2], 1960044953);
  EXPECT_EQ(machine.IdleMask().ToString(), "5,7,31-33,35-47");
}

}  // namespace
}  // namespace perfiso
