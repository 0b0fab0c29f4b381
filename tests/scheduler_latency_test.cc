// Focused scheduling-delay distribution tests: the quantitative heart of the
// paper is where a woken thread's delay comes from. These pin the delay
// distribution for each isolation regime on a machine with a deterministic
// synthetic "primary" (periodic short bursts), independent of the IndexServe
// model's randomness.
#include <gtest/gtest.h>

#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/perfiso/controller.h"
#include "src/workload/bullies.h"

namespace perfiso {
namespace {

struct DelayRig {
  Simulator sim;
  MachineSpec spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimPlatform> platform;
  JobId secondary;
  std::unique_ptr<CpuBully> bully;
  std::unique_ptr<PerfIsoController> controller;
  std::unique_ptr<PeriodicTask> primary_driver;

  DelayRig() {
    spec.num_cores = 16;
    spec.quantum = FromMillis(20);
    spec.context_switch = 0;
    machine = std::make_unique<SimMachine>(&sim, spec, "m0");
    platform = std::make_unique<SimPlatform>(machine.get(), nullptr);
    secondary = machine->CreateJob("secondary");
    platform->AddSecondaryJob(secondary);
  }

  // A primary that wakes `burst` workers of 200 us every millisecond.
  void StartPrimary(int burst) {
    primary_driver = std::make_unique<PeriodicTask>(
        &sim, 0, FromMillis(1), [this, burst](SimTime) {
          for (int i = 0; i < burst; ++i) {
            machine->SpawnThread(TenantClass::kPrimary, JobId{}, FromMicros(200), nullptr);
          }
        });
  }

  void StartBully(int threads) {
    bully = std::make_unique<CpuBully>(machine.get(), secondary, threads);
  }

  void StartBlind(int buffer) {
    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    config.blind.buffer_cores = buffer;
    controller = std::make_unique<PerfIsoController>(platform.get(), config);
    ASSERT_TRUE(controller->Initialize().ok());
    controller->AttachToSimulator(&sim);
  }

  const auto& Delays() { return machine->metrics().primary_sched_delay_us; }
};

TEST(SchedulerLatencyTest, AloneAllWakesDispatchInstantly) {
  DelayRig rig;
  rig.StartPrimary(4);
  rig.sim.RunUntil(kSecond);
  EXPECT_GT(rig.Delays().Count(), 3000u);
  EXPECT_EQ(rig.Delays().Max(), 0);  // 4 wakes, 16 idle cores: never queued
}

TEST(SchedulerLatencyTest, UnmanagedBullyDelaysWakesByQuantumScale) {
  DelayRig rig;
  rig.StartBully(16);
  rig.StartPrimary(4);
  rig.sim.RunUntil(kSecond);
  // Every wake lands behind a bully quantum (20 ms).
  EXPECT_GT(rig.Delays().P99(), 5000);                  // > 5 ms
  EXPECT_LE(rig.Delays().Max(), ToMicros(FromMillis(25)));  // bounded by ~quantum
}

TEST(SchedulerLatencyTest, BlindIsolationEliminatesQuantumWaits) {
  DelayRig rig;
  rig.StartBully(16);
  rig.StartPrimary(4);
  rig.StartBlind(6);  // buffer comfortably above the burst width
  rig.sim.RunUntil(kSecond);
  // After convergence, wakes land on buffer cores. Allow the first
  // milliseconds of convergence to contribute a tiny tail.
  EXPECT_LT(rig.Delays().P99(), 300);
  EXPECT_EQ(rig.Delays().P50(), 0);
}

TEST(SchedulerLatencyTest, BufferSmallerThanBurstLeaksDelays) {
  DelayRig rig;
  rig.StartBully(16);
  rig.StartPrimary(6);
  rig.StartBlind(2);  // buffer < burst width: the 3rd..6th wakes queue
  rig.sim.RunUntil(kSecond);
  // Excess wakes wait for a short primary burst (~200 us), not a bully
  // quantum — still far better than unmanaged, but measurably nonzero.
  EXPECT_GT(rig.Delays().P99(), 50);
  EXPECT_LT(rig.Delays().P99(), 5000);
}

TEST(SchedulerLatencyTest, StaticCoresAlsoProtectButStrandCapacity) {
  DelayRig rig;
  rig.StartBully(16);
  rig.StartPrimary(4);
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  config.static_secondary_cores = 4;
  rig.controller = std::make_unique<PerfIsoController>(rig.platform.get(), config);
  ASSERT_TRUE(rig.controller->Initialize().ok());
  // Sample between primary bursts (the periodic spawner fires on whole
  // milliseconds; its 200 us workers are done by +0.5 ms).
  rig.sim.RunUntil(kSecond + FromMicros(500));
  EXPECT_LT(rig.Delays().P99(), 300);
  // But 12 primary cores for ~0.8 cores of demand: ~12 cores stranded.
  EXPECT_GE(rig.machine->IdleCount(), 11);
}

TEST(SchedulerLatencyTest, CycleCapLeavesOnWindowDelays) {
  DelayRig rig;
  rig.StartBully(16);
  rig.StartPrimary(4);
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kCpuRateCap;
  config.cpu_rate_cap = 0.25;
  rig.controller = std::make_unique<PerfIsoController>(rig.platform.get(), config);
  ASSERT_TRUE(rig.controller->Initialize().ok());
  rig.sim.RunUntil(kSecond);
  // During the duty-cycle ON window all cores are held by the bully, so some
  // wakes still wait milliseconds: worse than blind isolation by orders of
  // magnitude.
  EXPECT_GT(rig.Delays().P99(), 1000);
}

}  // namespace
}  // namespace perfiso
