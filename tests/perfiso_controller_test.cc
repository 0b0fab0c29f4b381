#include "src/perfiso/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/platform/linux_platform.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/bullies.h"

namespace perfiso {
namespace {

struct Rig {
  Simulator sim;
  MachineSpec spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimPlatform> platform;
  JobId secondary;
  std::unique_ptr<CpuBully> bully;

  explicit Rig(int bully_threads = 48) {
    spec.context_switch = 0;
    machine = std::make_unique<SimMachine>(&sim, spec, "m0");
    platform = std::make_unique<SimPlatform>(machine.get(), nullptr);
    secondary = machine->CreateJob("secondary");
    platform->AddSecondaryJob(secondary);
    if (bully_threads > 0) {
      bully = std::make_unique<CpuBully>(machine.get(), secondary, bully_threads);
    }
  }

  PerfIsoController MakeController(const PerfIsoConfig& config) {
    return PerfIsoController(platform.get(), config);
  }
};

PerfIsoConfig BlindConfig(int buffer = 8) {
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = buffer;
  return config;
}

TEST(PerfIsoControllerTest, BlindIsolationConvergesToBufferIdleCores) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(FromMillis(50));
  // Bully-only machine: the secondary should own 40 cores, 8 stay idle.
  EXPECT_EQ(rig.machine->IdleCount(), 8);
  EXPECT_EQ(controller.secondary_cores(), 40);
}

TEST(PerfIsoControllerTest, PollUpdateSplitAvoidsRedundantUpdates) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(kSecond);
  // ~1000 polls at steady state, but only a handful of affinity updates.
  EXPECT_GT(controller.stats().polls, 900);
  EXPECT_LT(controller.stats().affinity_updates, 10);
}

TEST(PerfIsoControllerTest, ReactsToPrimaryBurst) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(FromMillis(20));
  ASSERT_EQ(controller.secondary_cores(), 40);
  // A burst of primary threads occupies 20 of the buffer/primary cores.
  rig.sim.Schedule(FromMillis(20), [&] {
    for (int i = 0; i < 20; ++i) {
      rig.machine->SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(300), nullptr);
    }
  });
  rig.sim.RunUntil(FromMillis(100));
  // The controller must have shrunk the secondary to restore the buffer:
  // S = 48 - 20 (primary) - 8 (buffer) = 20.
  EXPECT_EQ(controller.secondary_cores(), 20);
  EXPECT_EQ(rig.machine->IdleCount(), 8);
  // After the burst drains, the secondary grows back.
  rig.sim.RunUntil(kSecond);
  EXPECT_EQ(controller.secondary_cores(), 40);
}

TEST(PerfIsoControllerTest, StaticCoresModeApplied) {
  Rig rig;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  config.static_secondary_cores = 8;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  rig.sim.RunUntil(FromMillis(10));
  EXPECT_EQ(rig.machine->IdleCount(), 40);  // bully pinned to 8 high cores
  EXPECT_EQ((*rig.machine->JobAffinity(rig.secondary)), CpuSet::Range(40, 48));
}

TEST(PerfIsoControllerTest, CpuRateCapModeApplied) {
  Rig rig;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kCpuRateCap;
  config.cpu_rate_cap = 0.05;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  rig.sim.RunUntil(2 * kSecond);
  const double fraction = ToSeconds(*rig.machine->JobCpuTime(rig.secondary)) / (2.0 * 48);
  EXPECT_NEAR(fraction, 0.05, 0.01);
}

TEST(PerfIsoControllerTest, MemoryWatchdogKillsSecondary) {
  Rig rig;
  PerfIsoConfig config = BlindConfig(8);
  config.min_free_memory_bytes = 8LL * 1024 * 1024 * 1024;
  config.memory_check_every_n_polls = 10;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  // The secondary balloons to within 4 GB of the 128 GB machine.
  ASSERT_TRUE(rig.machine
                  ->AddJobMemory(rig.secondary, rig.machine->FreeMemoryBytes() -
                                                    4LL * 1024 * 1024 * 1024)
                  .ok());
  rig.sim.RunUntil(FromMillis(100));
  EXPECT_EQ(controller.stats().memory_kills, 1);
  EXPECT_EQ(*rig.machine->JobLiveThreads(rig.secondary), 0);
  EXPECT_EQ(rig.machine->IdleCount(), 48);
}

// The memory check runs on every poll whose count is a multiple of n, also
// on polls that skip the decision.
TEST(PerfIsoControllerTest, MemoryCheckRunsOnEveryNthPoll) {
  Rig rig;
  PerfIsoConfig config = BlindConfig(8);
  config.memory_check_every_n_polls = 7;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  int quiet_checks = 0;  // memory checks on polls that skipped the decision
  for (int ms = 1; ms <= 150; ++ms) {
    const bool quiet = controller.quiet();
    rig.sim.RunUntil(FromMillis(ms) + 1);
    const int64_t polls = controller.stats().polls;
    ASSERT_EQ(polls, ms);
    EXPECT_EQ(controller.stats().memory_checks, polls / 7) << "poll " << polls;
    quiet_checks += quiet && polls % 7 == 0 ? 1 : 0;
  }
  EXPECT_GT(quiet_checks, 15);
}

TEST(PerfIsoControllerTest, InvalidConfigRejected) {
  Rig rig;
  PerfIsoConfig config = BlindConfig(48);  // buffer == cores
  auto controller = rig.MakeController(config);
  EXPECT_FALSE(controller.Initialize().ok());
}

// A platform whose egress shaper is unavailable (LinuxPlatform without
// tc/HTB privileges); everything else behaves normally.
class NoEgressPlatform : public SimPlatform {
 public:
  using SimPlatform::SimPlatform;
  Status SetEgressRateCap(double) override {
    return UnimplementedError("egress shaping requires tc/HTB");
  }
};

TEST(PerfIsoControllerTest, EgressCapUnimplementedDegradesToWarning) {
  // Regression: a cluster config with an egress cap used to hard-fail
  // Initialize() on LinuxPlatform (controller.cc propagated the
  // UNIMPLEMENTED from linux_platform.cc). Like the other unimplemented
  // Linux knobs it must degrade to a logged warning — CPU isolation still
  // comes up.
  {
    LinuxPlatform platform;
    PerfIsoConfig config = BlindConfig(std::min(8, platform.NumCores() - 1));
    config.egress_rate_cap_bps = 50e6;
    PerfIsoController controller(&platform, config);
    EXPECT_TRUE(controller.Initialize().ok());
  }
  {
    Simulator sim;
    MachineSpec spec;
    SimMachine machine(&sim, spec, "m0");
    NoEgressPlatform platform(&machine, nullptr);
    JobId secondary = machine.CreateJob("secondary");
    platform.AddSecondaryJob(secondary);
    PerfIsoConfig config = BlindConfig(8);
    config.egress_rate_cap_bps = 50e6;
    PerfIsoController controller(&platform, config);
    EXPECT_TRUE(controller.Initialize().ok());
    EXPECT_EQ(controller.stats().affinity_updates, 1);  // CPU isolation came up
  }
}

TEST(PerfIsoControllerTest, SecondarySuspendedWhenPrimaryNeedsEverything) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  // Saturate the machine with primary work.
  for (int i = 0; i < 48; ++i) {
    rig.machine->SpawnThread(TenantClass::kPrimary, JobId{}, 2 * kSecond, nullptr);
  }
  rig.sim.RunUntil(kSecond);
  EXPECT_EQ(controller.secondary_cores(), 0);
  EXPECT_TRUE(*rig.machine->JobSuspended(rig.secondary));
  // Primary work ends; the secondary resumes.
  rig.sim.RunUntil(4 * kSecond);
  EXPECT_FALSE(*rig.machine->JobSuspended(rig.secondary));
  EXPECT_EQ(controller.secondary_cores(), 40);
}

// Records every affinity update and IdleCores() read; with `allow_watch`
// false it refuses the idle watch, like a platform that cannot provide one,
// so its controller decides in full on every poll.
class RecordingPlatform : public SimPlatform {
 public:
  RecordingPlatform(SimMachine* machine, bool allow_watch)
      : SimPlatform(machine, nullptr), allow_watch_(allow_watch) {}

  CpuSet IdleCores() override {
    ++idle_reads;
    return SimPlatform::IdleCores();
  }
  Status SetSecondaryAffinity(const CpuSet& mask) override {
    updates.emplace_back(NowNs(), mask);
    return SimPlatform::SetSecondaryAffinity(mask);
  }
  bool ArmIdleWatch(int lo, int hi, bool* flag) override {
    if (!allow_watch_) {
      return false;
    }
    const bool armed = SimPlatform::ArmIdleWatch(lo, hi, flag);
    arms += armed ? 1 : 0;
    return armed;
  }

  std::vector<std::pair<SimTime, CpuSet>> updates;
  int64_t idle_reads = 0;
  int64_t arms = 0;

 private:
  bool allow_watch_;
};

// One seeded scenario on one machine: random primary bursts around a
// blind-isolated bully, with a burst-free gap in which the controller goes
// quiet before a memory-floor crossing lands.
struct DiffRun {
  Simulator sim;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<RecordingPlatform> platform;
  JobId secondary;
  std::unique_ptr<CpuBully> bully;
  std::unique_ptr<PerfIsoController> controller;
  Rng rng;
  int quiet_at_events = 0;  // scheduled events that found the controller quiet

  DiffRun(bool allow_watch, int bully_threads, uint64_t seed) : rng(seed) {
    machine = std::make_unique<SimMachine>(&sim, MachineSpec{}, "m0");
    platform = std::make_unique<RecordingPlatform>(machine.get(), allow_watch);
    secondary = machine->CreateJob("secondary");
    platform->AddSecondaryJob(secondary);
    bully = std::make_unique<CpuBully>(machine.get(), secondary, bully_threads);
    PerfIsoConfig config = BlindConfig(8);
    config.min_free_memory_bytes = 8LL * 1024 * 1024 * 1024;
    config.memory_check_every_n_polls = 16;
    controller = std::make_unique<PerfIsoController>(platform.get(), config);
    EXPECT_TRUE(controller->Initialize().ok());
    controller->AttachToSimulator(&sim);
  }

  // Bursts of 1-30 primary threads at random gaps inside [from, to); each
  // thread runs 0.1-40 ms of CPU, so the idle count steps through many values.
  void ScheduleBursts(SimTime from, SimTime to) {
    for (SimTime at = from + FromMicros(rng.UniformInt(100, 8000)); at < to;
         at += FromMicros(rng.UniformInt(100, 8000))) {
      std::vector<SimDuration> work(static_cast<size_t>(rng.UniformInt(1, 30)));
      for (SimDuration& w : work) {
        w = FromMicros(rng.UniformInt(100, 40000));
      }
      sim.Schedule(at, [this, work] {
        for (SimDuration w : work) {
          machine->SpawnThread(TenantClass::kPrimary, JobId{}, w, nullptr);
        }
      });
    }
  }

  void At(SimTime at, std::function<void()> action) {
    sim.Schedule(at, [this, action] {
      quiet_at_events += controller->quiet() ? 1 : 0;
      action();
    });
  }

  void Run() {
    ScheduleBursts(0, FromMillis(150));
    ScheduleBursts(FromMillis(240), FromMillis(400));
    ScheduleBursts(FromMillis(485), FromMillis(700));
    At(FromMillis(800), [this] {
      EXPECT_TRUE(machine
                      ->AddJobMemory(secondary,
                                     machine->FreeMemoryBytes() - 4LL * 1024 * 1024 * 1024)
                      .ok());
    });
    ScheduleBursts(FromMillis(850), FromMillis(1200));
    sim.RunUntil(FromMillis(1300));
  }
};

// A platform that accepts the idle watch but never fires it.
class DeafWatchPlatform : public SimPlatform {
 public:
  using SimPlatform::SimPlatform;
  bool ArmIdleWatch(int, int, bool*) override { return true; }
  void DisarmIdleWatch() override {}
};

// A quiet poll trusts the watch. SimSan re-derives every skipped decision,
// so a watch that misses the idle count leaving its range aborts there;
// the plain build silently keeps the stale allocation.
TEST(PerfIsoControllerTest, SimSanCatchesAQuietPollThatShouldHaveActed) {
  const auto run = [] {
    Simulator sim;
    SimMachine machine(&sim, MachineSpec{}, "m0");
    DeafWatchPlatform platform(&machine, nullptr);
    const JobId secondary = machine.CreateJob("secondary");
    platform.AddSecondaryJob(secondary);
    CpuBully bully(&machine, secondary, 48);
    PerfIsoController controller(&platform, BlindConfig(8));
    EXPECT_TRUE(controller.Initialize().ok());
    controller.AttachToSimulator(&sim);
    sim.RunUntil(FromMillis(50));
    EXPECT_TRUE(controller.quiet());
    EXPECT_EQ(controller.secondary_cores(), 40);
    for (int i = 0; i < 20; ++i) {
      machine.SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(300), nullptr);
    }
    sim.RunUntil(FromMillis(100));
    return controller.secondary_cores();
  };
  if constexpr (kSimSanEnabled) {
    EXPECT_DEATH(run(), "SimSan: quiet-poll");
  } else {
    EXPECT_EQ(run(), 40);  // should have shrunk to 20
  }
}

TEST(PerfIsoControllerTest, QuietPollsMatchFullPollsExactly) {
  for (int bully_threads : {8, 48}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("bully=" + std::to_string(bully_threads) + " seed=" + std::to_string(seed));
      DiffRun watched(/*allow_watch=*/true, bully_threads, seed);
      DiffRun full(/*allow_watch=*/false, bully_threads, seed);
      watched.Run();
      full.Run();

      EXPECT_EQ(watched.platform->updates, full.platform->updates);
      const PerfIsoController::Stats& a = watched.controller->stats();
      const PerfIsoController::Stats& b = full.controller->stats();
      EXPECT_EQ(a.polls, b.polls);
      EXPECT_EQ(a.affinity_updates, b.affinity_updates);
      EXPECT_EQ(a.rate_updates, b.rate_updates);
      EXPECT_EQ(a.memory_checks, b.memory_checks);
      EXPECT_EQ(a.memory_kills, b.memory_kills);
      EXPECT_EQ(a.io_polls, b.io_polls);
      EXPECT_EQ(a.memory_kills, 1);
      const SimMachine::Metrics& ma = watched.machine->metrics();
      const SimMachine::Metrics& mb = full.machine->metrics();
      for (int tenant = 0; tenant < kNumTenantClasses; ++tenant) {
        EXPECT_EQ(ma.busy_ns[tenant], mb.busy_ns[tenant]);
      }
      EXPECT_EQ(ma.dispatches, mb.dispatches);
      EXPECT_EQ(ma.preemptions, mb.preemptions);
      EXPECT_EQ(ma.steals, mb.steals);
      EXPECT_EQ(ma.threads_spawned, mb.threads_spawned);
      EXPECT_EQ(ma.max_ready_burst_5us, mb.max_ready_burst_5us);
      EXPECT_EQ(ma.primary_sched_delay_us.Digest(), mb.primary_sched_delay_us.Digest());
      EXPECT_EQ(watched.sim.stats().events_executed, full.sim.stats().events_executed);
      EXPECT_EQ(watched.sim.stats().events_scheduled, full.sim.stats().events_scheduled);
      EXPECT_EQ(watched.sim.stats().events_cancelled, full.sim.stats().events_cancelled);

      // The watch did its job: quiet when the memory-floor crossing landed,
      // and far fewer machine reads.
      EXPECT_EQ(watched.quiet_at_events, 1);
      EXPECT_EQ(full.quiet_at_events, 0);
      EXPECT_EQ(full.platform->arms, 0);
      EXPECT_GT(watched.platform->arms, 0);
      EXPECT_EQ(full.platform->idle_reads, b.polls);
      if constexpr (!kSimSanEnabled) {  // SimSan re-reads on every quiet poll
        EXPECT_LT(watched.platform->idle_reads * 2, full.platform->idle_reads);
      }
      EXPECT_TRUE(watched.machine->CheckInvariants().ok());
    }
  }
}

}  // namespace
}  // namespace perfiso
