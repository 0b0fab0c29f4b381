// Randomized stress for the pooled event engine: interleaves Schedule /
// Cancel / Reschedule / Step against a trivially correct reference model (a
// sorted (time, seq) map) and checks that firing order, pending counts, and
// handle staleness agree exactly. A second battery churns a SimMachine on top
// of the engine and asserts CheckInvariants() throughout — the machine is the
// engine's most demanding consumer (slice preemption cancels, rate-cap
// reschedules).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {
namespace {

class EngineVsReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineVsReferenceTest, RandomOpsMatchReferenceModel) {
  Simulator sim;
  Rng rng(GetParam());

  // Reference model: fire order is ascending (time, seq); a Reschedule gets a
  // fresh seq, exactly like the engine's contract.
  struct RefEvent {
    int id;
  };
  std::map<std::pair<SimTime, uint64_t>, RefEvent> reference;
  uint64_t ref_seq = 0;

  struct LiveEvent {
    // Bookkeeping only: the test loop cancels/erases entries as they retire.
    EventHandle handle;  // NOLINT(perfiso-LIFE-001)
    std::pair<SimTime, uint64_t> ref_key;
  };
  std::vector<LiveEvent> live;
  std::vector<int> engine_fired;  // filled by engine callbacks
  std::vector<int> reference_fired;
  int next_id = 0;

  const auto fire_reference_until = [&](SimTime until) {
    while (!reference.empty() && reference.begin()->first.first <= until) {
      reference_fired.push_back(reference.begin()->second.id);
      reference.erase(reference.begin());
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op <= 4 || live.empty()) {  // schedule
      const SimTime when = sim.Now() + rng.UniformInt(0, 500);
      const int id = next_id++;
      const EventHandle handle = sim.Schedule(when, [&engine_fired, id] {
        engine_fired.push_back(id);
      });
      const auto key = std::make_pair(when, ref_seq++);
      reference.emplace(key, RefEvent{id});
      live.push_back(LiveEvent{handle, key});
    } else if (op <= 6) {  // cancel a random live event
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      const LiveEvent victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      EXPECT_TRUE(sim.Cancel(victim.handle));
      if constexpr (!kSimSanEnabled) {
        // The lenient contract: a second cancel is a stale no-op. SimSan
        // promotes exactly this to an abort (see simsan_test.cc).
        EXPECT_FALSE(sim.Cancel(victim.handle));
      }
      ASSERT_EQ(reference.erase(victim.ref_key), 1u);
    } else if (op == 7) {  // reschedule a random live event
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      LiveEvent& victim = live[pick];
      const SimTime when = sim.Now() + rng.UniformInt(0, 500);
      EXPECT_TRUE(sim.Reschedule(victim.handle, when));
      const RefEvent ref = reference.at(victim.ref_key);
      reference.erase(victim.ref_key);
      victim.ref_key = std::make_pair(when, ref_seq++);
      reference.emplace(victim.ref_key, ref);
    } else {  // advance time, firing everything due
      const SimTime until = sim.Now() + rng.UniformInt(0, 300);
      sim.RunUntil(until);
      fire_reference_until(until);
      std::erase_if(live, [&](const LiveEvent& e) { return !sim.Pending(e.handle); });
    }
    ASSERT_EQ(sim.PendingEvents(), reference.size()) << "at step " << step;
    ASSERT_EQ(engine_fired, reference_fired) << "at step " << step;
  }

  sim.RunUntilEmpty();
  fire_reference_until(std::numeric_limits<SimTime>::max());
  EXPECT_EQ(engine_fired, reference_fired);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.stats().events_executed, engine_fired.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsReferenceTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- Timing-wheel edge cases -------------------------------------------------
//
// Deterministic probes of the two-band scheduler's geometry: level pages
// cover absolute-time bits [0,12), [12,18), [18,24); the wheel horizon is
// 2^24 ns, past which events live in the overflow heap. The constants are
// private to the engine, so these tests pin behavior (fire times, order,
// overflow residency) at the boundaries rather than peeking at internals.

constexpr SimTime kL0Page = SimTime{1} << 12;
constexpr SimTime kL1Page = SimTime{1} << 18;
constexpr SimTime kHorizon = SimTime{1} << 24;

TEST(WheelEdgeCaseTest, SlotAndPageBoundaryEventsFireInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> fired;
  // One event on each side of every geometry boundary: level-0 slot (1 ns),
  // level-0 page, level-1 page, and the horizon itself.
  std::vector<SimTime> times;
  for (SimTime boundary : {SimTime{1}, kL0Page, kL1Page, kHorizon}) {
    times.push_back(boundary - 1);
    times.push_back(boundary);
    times.push_back(boundary + 1);
  }
  // Schedule in reversed order so bucket order cannot accidentally match.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const SimTime t = *it;
    sim.Schedule(t, [&fired, t, &sim] {
      EXPECT_EQ(sim.Now(), t);
      fired.push_back(t);
    });
  }
  sim.CheckEngineInvariants();
  sim.RunUntilEmpty();
  std::sort(times.begin(), times.end());
  EXPECT_EQ(fired, times);
  sim.CheckEngineInvariants();
}

TEST(WheelEdgeCaseTest, OverflowResidentsCascadeThroughLevelsToExactTimes) {
  Simulator sim;
  std::vector<SimTime> fired;
  // Far-band events several horizon pages out, at offsets that exercise every
  // level on the way down (page base, mid-level-1, mid-level-0, odd ns).
  std::vector<SimTime> times;
  for (uint64_t page : {1u, 2u, 5u}) {
    for (SimTime offset : {SimTime{0}, kL1Page + 3, kL0Page + 9, SimTime{4097}}) {
      times.push_back(static_cast<SimTime>(page) * kHorizon + offset);
    }
  }
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const SimTime t = *it;
    sim.Schedule(t, [&fired, t, &sim] {
      EXPECT_EQ(sim.Now(), t);
      fired.push_back(t);
    });
  }
  EXPECT_EQ(sim.OverflowEvents(), times.size());  // all beyond the horizon
  sim.CheckEngineInvariants();
  sim.RunUntilEmpty();
  std::sort(times.begin(), times.end());
  EXPECT_EQ(fired, times);
  EXPECT_EQ(sim.OverflowEvents(), 0u);
  EXPECT_GT(sim.stats().overflow_pulls, 0u);
  EXPECT_GT(sim.stats().wheel_cascades, 0u);
}

TEST(WheelEdgeCaseTest, CancelRemovesWheelAndOverflowResidentsEagerly) {
  Simulator sim;
  int fired = 0;
  // One resident per band: level 0, level 1, level 2, overflow.
  const EventHandle l0 = sim.Schedule(100, [&fired] { ++fired; });
  const EventHandle l1 = sim.Schedule(2 * kL0Page, [&fired] { ++fired; });
  const EventHandle l2 = sim.Schedule(2 * kL1Page, [&fired] { ++fired; });
  const EventHandle far = sim.Schedule(2 * kHorizon, [&fired] { ++fired; });
  EXPECT_EQ(sim.PendingEvents(), 4u);
  EXPECT_EQ(sim.OverflowEvents(), 1u);
  EXPECT_TRUE(sim.Cancel(l1));
  EXPECT_TRUE(sim.Cancel(far));  // overflow resident leaves the heap eagerly
  EXPECT_EQ(sim.OverflowEvents(), 0u);
  sim.CheckEngineInvariants();
  EXPECT_TRUE(sim.Cancel(l0));
  EXPECT_TRUE(sim.Cancel(l2));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunUntilEmpty();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.stats().events_cancelled, 4u);
}

TEST(WheelEdgeCaseTest, RescheduleMovesRecordsBetweenBands) {
  Simulator sim;
  std::vector<int> fired;
  // Wheel -> overflow -> wheel round trip on one handle.
  const EventHandle moved = sim.Schedule(500, [&fired] { fired.push_back(0); });
  EXPECT_EQ(sim.OverflowEvents(), 0u);
  EXPECT_TRUE(sim.Reschedule(moved, 3 * kHorizon));
  EXPECT_EQ(sim.OverflowEvents(), 1u);
  sim.CheckEngineInvariants();
  EXPECT_TRUE(sim.Reschedule(moved, 700));
  EXPECT_EQ(sim.OverflowEvents(), 0u);
  // A same-time rival scheduled before the final move: the move is a fresh
  // scheduling decision, so the rival (older seq) fires first.
  sim.Schedule(700, [&fired] { fired.push_back(1); });
  EXPECT_TRUE(sim.Reschedule(moved, 700));
  sim.CheckEngineInvariants();
  sim.RunUntilEmpty();
  EXPECT_EQ(fired, (std::vector<int>{1, 0}));
}

TEST(WheelEdgeCaseTest, SameTimeEventsKeepScheduleOrderAcrossBatchDrain) {
  Simulator sim;
  std::vector<int> fired;
  const SimTime when = 4096;  // one level-0 slot == one timestamp
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(sim.Schedule(when, [&fired, i] { fired.push_back(i); }));
  }
  // Mid-batch mutations, exercised via the first callback: cancelling a
  // not-yet-fired batch resident must suppress it; rescheduling one to the
  // same timestamp re-orders it to the back (fresh seq).
  sim.Schedule(when - 1, [&] {
    EXPECT_TRUE(sim.Cancel(handles[3]));
    EXPECT_TRUE(sim.Reschedule(handles[1], when));
    // A brand-new same-time event scheduled while the prior slot drains
    // still fires behind everything already queued at `when`.
    sim.Schedule(when, [&fired] { fired.push_back(100); });
  });
  sim.RunUntilEmpty();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 4, 5, 6, 7, 1, 100}));
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
}

TEST(WheelEdgeCaseTest, CallbackCancelOfALaterBatchResidentSuppressesIt) {
  Simulator sim;
  std::vector<int> fired;
  EventHandle second;
  sim.Schedule(1000, [&] {
    fired.push_back(0);
    EXPECT_TRUE(sim.Cancel(second));  // drained into the same batch, not yet fired
  });
  second = sim.Schedule(1000, [&fired] { fired.push_back(1); });
  sim.RunUntilEmpty();
  EXPECT_EQ(fired, (std::vector<int>{0}));
}

TEST(WheelEdgeCaseTest, ClockNearTopLevelHorizonCrossesPagesCleanly) {
  Simulator sim;
  // Drive the clock to just shy of a high horizon-page boundary with an
  // empty wheel, then straddle the boundary with events on both sides.
  const SimTime base = 41 * kHorizon;
  sim.RunUntil(base - 2);
  EXPECT_EQ(sim.Now(), base - 2);
  std::vector<SimTime> fired;
  for (const SimTime t : {base + 1, base, base - 1, base + kHorizon}) {
    sim.Schedule(t, [&fired, t] { fired.push_back(t); });
  }
  // Pages are aligned to absolute-time bits, not sliding windows: base is 1 ns
  // away from Now() but already in the next horizon page, so it and everything
  // after it live in the far band until the clock crosses the boundary.
  EXPECT_EQ(sim.OverflowEvents(), 3u);
  sim.CheckEngineInvariants();
  sim.RunUntil(base);
  EXPECT_EQ(fired, (std::vector<SimTime>{base - 1, base}));
  sim.RunUntilEmpty();
  EXPECT_EQ(fired, (std::vector<SimTime>{base - 1, base, base + 1, base + kHorizon}));
  sim.CheckEngineInvariants();
}

// --- Machine churn on top of the engine --------------------------------------

class MachineOnEngineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MachineOnEngineTest, RateCapAndAffinityChurnKeepInvariants) {
  Simulator sim;
  MachineSpec spec;
  spec.num_cores = 6;
  spec.quantum = FromMillis(2);
  spec.context_switch = FromMicros(1);
  spec.throttle_interval = FromMillis(8);
  SimMachine machine(&sim, spec, "engine-churn");
  Rng rng(GetParam());

  const JobId capped = machine.CreateJob("capped");
  const JobId free_job = machine.CreateJob("free");
  for (int i = 0; i < 4; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, capped);
  }

  for (int step = 0; step < 400; ++step) {
    switch (rng.UniformInt(0, 5)) {
      case 0:  // flip the rate cap (arms/cancels/reschedules exhaust checks)
        ASSERT_TRUE(machine.SetJobCpuRateCap(capped, rng.Uniform(0.0, 0.6)).ok());
        break;
      case 1:
        ASSERT_TRUE(machine.SetJobCpuRateCap(capped, 0).ok());
        break;
      case 2: {  // affinity churn (cancels slice events via preemption)
        CpuSet mask = CpuSet::FromMask64(rng.Next() & 0x3F);
        if (mask.Empty()) {
          mask = CpuSet::FirstN(spec.num_cores);
        }
        ASSERT_TRUE(machine.SetJobAffinity(capped, mask).ok());
        break;
      }
      case 3:  // short primary bursts compete for cores
        machine.SpawnThread(TenantClass::kPrimary, free_job, FromMicros(rng.Uniform(5, 500)),
                            nullptr);
        break;
      case 4:  // suspend/resume
        ASSERT_TRUE(machine.SetJobSuspended(capped, rng.Bernoulli(0.5)).ok());
        break;
      default:
        break;
    }
    sim.RunUntil(sim.Now() + rng.UniformInt(0, static_cast<int64_t>(FromMicros(400))));
    const Status invariants = machine.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << "step " << step << ": " << invariants.ToString();
  }
  ASSERT_TRUE(machine.SetJobSuspended(capped, false).ok());
  (void)machine.KillJob(capped);
  sim.RunUntil(sim.Now() + kSecond);
  ASSERT_TRUE(machine.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineOnEngineTest, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace perfiso
