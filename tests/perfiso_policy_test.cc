#include "src/perfiso/policy.h"

#include <gtest/gtest.h>

namespace perfiso {
namespace {

TEST(PlacementMaskTest, PackHigh) {
  EXPECT_EQ(BuildPlacementMask(CorePlacement::kPackHigh, 8, 48), CpuSet::Range(40, 48));
  EXPECT_EQ(BuildPlacementMask(CorePlacement::kPackHigh, 0, 48), CpuSet());
  EXPECT_EQ(BuildPlacementMask(CorePlacement::kPackHigh, 48, 48), CpuSet::FirstN(48));
}

TEST(PlacementMaskTest, PackLow) {
  EXPECT_EQ(BuildPlacementMask(CorePlacement::kPackLow, 8, 48), CpuSet::FirstN(8));
}

TEST(PlacementMaskTest, SpreadHasExactCountAndNoDuplicates) {
  for (int count = 1; count <= 48; ++count) {
    const CpuSet mask = BuildPlacementMask(CorePlacement::kSpread, count, 48);
    EXPECT_EQ(mask.Count(), count) << "count=" << count;
  }
}

BlindIsolationSettings Settings(int buffer, bool proportional = true) {
  BlindIsolationSettings settings;
  settings.buffer_cores = buffer;
  settings.proportional_step = proportional;
  return settings;
}

TEST(BlindIsolationPolicyTest, GrowsWhenIdleAboveBuffer) {
  BlindIsolationPolicy policy(Settings(8), 48);
  EXPECT_EQ(policy.secondary_cores(), 0);
  // All 48 cores idle: I=48 > B=8 -> S grows by I-B=40 (capped at 48-8=40).
  auto mask = policy.Decide(48);
  ASSERT_TRUE(mask.has_value());
  EXPECT_EQ(policy.secondary_cores(), 40);
  EXPECT_EQ(mask->Count(), 40);
}

TEST(BlindIsolationPolicyTest, ShrinksWhenIdleBelowBuffer) {
  BlindIsolationSettings settings = Settings(8);
  settings.initial_secondary_cores = 40;
  BlindIsolationPolicy policy(settings, 48);
  // Only 2 idle cores: I=2 < B=8 -> S -= 6.
  auto mask = policy.Decide(2);
  ASSERT_TRUE(mask.has_value());
  EXPECT_EQ(policy.secondary_cores(), 34);
}

TEST(BlindIsolationPolicyTest, SteadyStateIssuesNoUpdate) {
  BlindIsolationSettings settings = Settings(8);
  settings.initial_secondary_cores = 20;
  BlindIsolationPolicy policy(settings, 48);
  // Exactly B idle cores: no change, no update.
  EXPECT_FALSE(policy.Decide(8).has_value());
  EXPECT_EQ(policy.secondary_cores(), 20);
}

TEST(BlindIsolationPolicyTest, UpdateOnEveryPollAblation) {
  BlindIsolationSettings settings = Settings(8);
  settings.initial_secondary_cores = 20;
  settings.update_on_every_poll = true;
  BlindIsolationPolicy policy(settings, 48);
  EXPECT_TRUE(policy.Decide(8).has_value());  // unchanged but issued
}

TEST(BlindIsolationPolicyTest, UnitStepAblation) {
  BlindIsolationPolicy policy(Settings(8, /*proportional=*/false), 48);
  policy.Decide(48);
  EXPECT_EQ(policy.secondary_cores(), 1);  // grows one core at a time
  policy.Decide(48);
  EXPECT_EQ(policy.secondary_cores(), 2);
  policy.Decide(0);
  EXPECT_EQ(policy.secondary_cores(), 1);  // shrinks one core at a time
}

TEST(BlindIsolationPolicyTest, NeverExceedsCoresMinusBuffer) {
  BlindIsolationPolicy policy(Settings(4), 16);
  for (int i = 0; i < 10; ++i) {
    policy.Decide(16);
  }
  EXPECT_EQ(policy.secondary_cores(), 12);
}

TEST(BlindIsolationPolicyTest, CanShrinkToZero) {
  BlindIsolationSettings settings = Settings(8);
  settings.initial_secondary_cores = 3;
  BlindIsolationPolicy policy(settings, 48);
  auto mask = policy.Decide(0);  // zero idle cores
  ASSERT_TRUE(mask.has_value());
  EXPECT_EQ(policy.secondary_cores(), 0);
  EXPECT_TRUE(mask->Empty());
}

TEST(BlindIsolationPolicyTest, ConvergesToEquilibrium) {
  // Closed loop against a synthetic machine: primary occupies P cores, the
  // secondary saturates whatever it is given. Idle = N - P - S.
  constexpr int kCores = 48;
  constexpr int kBuffer = 8;
  BlindIsolationPolicy policy(Settings(kBuffer), kCores);
  for (int primary : {10, 25, 4, 38, 0}) {
    for (int step = 0; step < 10; ++step) {
      const int busy = std::min(kCores, primary + policy.secondary_cores());
      policy.Decide(kCores - busy);
    }
    EXPECT_EQ(policy.secondary_cores(), std::max(0, kCores - primary - kBuffer))
        << "primary=" << primary;
  }
}

// The quiet range is exact: over every setting that shapes a decision, every
// secondary allocation and every idle count, Decide is a no-op that changes
// no state if and only if the count is inside QuietRange().
TEST(BlindIsolationPolicyTest, QuietRangeIsExactlyTheNoOpSet) {
  constexpr int kCores = 48;
  int quiet_cases = 0;
  for (int buffer : {0, 1, 8, kCores - 1}) {
    for (bool proportional : {true, false}) {
      for (int deadband = 0; deadband <= 3; ++deadband) {
        for (bool every_poll : {false, true}) {
          for (int secondary = 0; secondary <= kCores - buffer; ++secondary) {
            BlindIsolationSettings settings = Settings(buffer, proportional);
            settings.idle_deadband = deadband;
            settings.update_on_every_poll = every_poll;
            settings.initial_secondary_cores = secondary;
            const BlindIsolationPolicy fresh(settings, kCores);
            ASSERT_EQ(fresh.secondary_cores(), secondary);
            const BlindIsolationPolicy::IdleRange range = fresh.QuietRange();
            EXPECT_EQ(range.Empty(), every_poll);
            for (int idle = 0; idle <= kCores; ++idle) {
              BlindIsolationPolicy policy = fresh;
              const bool no_op =
                  !policy.Decide(idle).has_value() && policy.secondary_cores() == secondary;
              EXPECT_EQ(no_op, range.Contains(idle))
                  << "B=" << buffer << " proportional=" << proportional
                  << " deadband=" << deadband << " every_poll=" << every_poll
                  << " S=" << secondary << " I=" << idle;
              quiet_cases += no_op ? 1 : 0;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(quiet_cases, 0);
}

}  // namespace
}  // namespace perfiso
