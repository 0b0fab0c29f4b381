// Edge-case battery for the timing wheel's horizon boundary (the two-band
// engine's wheel/overflow split at 2^24 ns).
//
// The wheel covers exactly one level-2 page: an event is wheel-resident iff
// its timestamp shares the clock's bits above kWheelShift[3] = 24. These
// tests pin the boundary cases: an event exactly
// 2^24 ns ahead must start in the overflow heap and be pulled into the wheel
// (and cascade down to level 0) when the clock crosses the page; events a
// single nanosecond to either side of the horizon must land on the right
// side; cancel/reschedule through the pull and cascade must stay valid.
#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.h"

namespace perfiso {
namespace {

constexpr SimTime kHorizon = SimTime{1} << 24;  // one level-2 page, ~16.8 ms

TEST(WheelHorizonTest, EventExactlyOneHorizonAheadStartsInOverflow) {
  Simulator sim;
  // Put the clock at an arbitrary mid-page position first.
  sim.Schedule(12345, [] {});
  sim.RunUntilEmpty();
  ASSERT_EQ(sim.Now(), 12345);

  // t = now + 2^24 always lands in the next level-2 page, whatever the
  // clock's page offset — it must be a far-band resident, not wheel-resident.
  bool fired = false;
  const SimTime t = sim.Now() + kHorizon;
  sim.Schedule(t, [&] { fired = true; });
  EXPECT_EQ(sim.OverflowEvents(), 1u);
  sim.CheckEngineInvariants();
  sim.RunUntilEmpty();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), t);
  EXPECT_EQ(sim.OverflowEvents(), 0u);
  sim.CheckEngineInvariants();
}

TEST(WheelHorizonTest, PageBoundaryMinusOneStaysInWheel) {
  Simulator sim;
  // From t=0, the last timestamp of the current page is 2^24 - 1: same page,
  // so it belongs in the wheel even though it is nearly a full horizon away.
  bool fired = false;
  sim.Schedule(kHorizon - 1, [&] { fired = true; });
  EXPECT_EQ(sim.OverflowEvents(), 0u);
  sim.CheckEngineInvariants();
  // The first timestamp of the next page is one tick later — far band.
  sim.Schedule(kHorizon, [] {});
  EXPECT_EQ(sim.OverflowEvents(), 1u);
  sim.CheckEngineInvariants();
  sim.RunUntilEmpty();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), kHorizon);
}

TEST(WheelHorizonTest, EventAtExactPageBaseFiresOnTime) {
  Simulator sim;
  // A timestamp with all 24 page-offset bits zero is the very first slot of
  // its page: the overflow pull and the top-down cascades must place it in
  // level 0 slot 0 and fire it at exactly its timestamp.
  std::vector<SimTime> fire_times;
  sim.Schedule(2 * kHorizon, [&] { fire_times.push_back(sim.Now()); });
  sim.Schedule(2 * kHorizon + 1, [&] { fire_times.push_back(sim.Now()); });
  EXPECT_EQ(sim.OverflowEvents(), 2u);
  sim.RunUntilEmpty();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], 2 * kHorizon);
  EXPECT_EQ(fire_times[1], 2 * kHorizon + 1);
  sim.CheckEngineInvariants();
}

TEST(WheelHorizonTest, OverflowSurvivesCascadeAcrossLevel2Page) {
  Simulator sim;
  // Three events in the next page at offsets that exercise all three wheel
  // levels after the pull: level-2 (offset with bits >= 18), level-1 (bits
  // >= 12), level-0 (bits < 12). Advance the clock across the page boundary
  // with a small step first (an unrelated near event) so SetClockTo performs
  // the pull + cascade rather than DrainNextSlot jumping page-aligned.
  std::vector<int> order;
  const SimTime page = kHorizon;  // next page base as seen from t=0
  sim.Schedule(page + (SimTime{3} << 18) + 7, [&] { order.push_back(2); });
  sim.Schedule(page + (SimTime{5} << 12) + 3, [&] { order.push_back(1); });
  sim.Schedule(page + 42, [&] { order.push_back(0); });
  EXPECT_EQ(sim.OverflowEvents(), 3u);
  // A near event inside the current page keeps the wheel non-empty so the
  // clock advances into the new page via the overflow-pull path.
  sim.Schedule(123, [] {});
  sim.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.Now(), page + (SimTime{3} << 18) + 7);
  sim.CheckEngineInvariants();
}

TEST(WheelHorizonTest, CancelAndRescheduleAcrossThePull) {
  Simulator sim;
  // Handles minted while events sit in the far band must stay valid after
  // the records migrate into the wheel (the pull rewrites band bookkeeping
  // but not generations).
  bool cancelled_fired = false;
  bool moved_fired = false;
  SimTime moved_fire_time = 0;
  EventHandle to_cancel = sim.Schedule(kHorizon + 100, [&] { cancelled_fired = true; });
  EventHandle to_move = sim.Schedule(kHorizon + 200, [&] {
    moved_fired = true;
    moved_fire_time = sim.Now();
  });
  EXPECT_EQ(sim.OverflowEvents(), 2u);

  // Walk the clock into the new page: the pull moves both records into the
  // wheel; then cancel one and reschedule the other while wheel-resident.
  sim.Schedule(kHorizon + 10, [&] {
    EXPECT_TRUE(sim.Cancel(to_cancel));
    EXPECT_TRUE(sim.Reschedule(to_move, sim.Now() + kHorizon));  // back out past the horizon
  });
  sim.RunUntilEmpty();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(moved_fired);
  EXPECT_EQ(moved_fire_time, kHorizon + 10 + kHorizon);
  sim.CheckEngineInvariants();
}

TEST(WheelHorizonTest, RepeatedHorizonHopsAgainstReferenceModel) {
  // Seeded stress across ~8 pages: schedule deltas clustered around the
  // horizon (2^24 +/- a few slots) plus same-timestamp pairs, and check the
  // engine's fire order against the (time, seq) reference ordering.
  Simulator sim;
  Rng rng(2024);
  struct Ref {
    SimTime time;
    uint64_t seq;
  };
  std::vector<Ref> expected;
  std::vector<Ref> fired;
  uint64_t seq = 0;
  SimTime base = 0;
  for (int round = 0; round < 64; ++round) {
    const uint64_t r = rng.Next();
    SimTime delta;
    switch (r % 4) {
      case 0:
        delta = kHorizon;  // exactly one page ahead
        break;
      case 1:
        delta = kHorizon - 1 - static_cast<SimTime>(r % 3);  // just inside
        break;
      case 2:
        delta = kHorizon + 1 + static_cast<SimTime>(r % 3);  // just outside
        break;
      default:
        delta = static_cast<SimTime>(r % 5000);  // near event
        break;
    }
    const SimTime t = base + delta;
    const uint64_t s = seq++;
    expected.push_back(Ref{t, s});
    sim.Schedule(t, [&fired, &sim, t, s] {
      EXPECT_EQ(sim.Now(), t);
      fired.push_back(Ref{t, s});
    });
    if (r % 8 == 0) {
      base = t;  // occasionally anchor later deltas on a scheduled time
    }
  }
  sim.RunUntilEmpty();
  std::sort(expected.begin(), expected.end(), [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[i].time, expected[i].time) << "position " << i;
    EXPECT_EQ(fired[i].seq, expected[i].seq) << "position " << i;
  }
  sim.CheckEngineInvariants();
}

TEST(WheelHorizonTest, RunUntilParksExactlyAtPageBoundary) {
  Simulator sim;
  // RunUntil to a page-aligned instant with a pending event exactly there:
  // the event is <= until, so it must fire, and the clock must equal the
  // boundary afterwards.
  bool fired = false;
  sim.Schedule(kHorizon, [&] { fired = true; });
  sim.RunUntil(kHorizon);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), kHorizon);
  // And one tick short: the event must NOT fire, and scheduling after the
  // park must still work on both sides of the (new, shifted) horizon.
  Simulator sim2;
  bool early_fired = false;
  sim2.Schedule(kHorizon, [&] { early_fired = true; });
  sim2.RunUntil(kHorizon - 1);
  EXPECT_FALSE(early_fired);
  EXPECT_EQ(sim2.Now(), kHorizon - 1);
  sim2.CheckEngineInvariants();
  sim2.RunUntilEmpty();
  EXPECT_TRUE(early_fired);
}

}  // namespace
}  // namespace perfiso
