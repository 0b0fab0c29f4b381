#include "src/perfiso/perfiso_config.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/disk/io_scheduler.h"

namespace perfiso {
namespace {

TEST(PerfIsoConfigTest, RoundTripsThroughConfigMap) {
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  config.blind.buffer_cores = 6;
  config.blind.proportional_step = false;
  config.blind.placement = CorePlacement::kSpread;
  config.blind.initial_secondary_cores = 12;
  config.blind.update_on_every_poll = true;
  config.static_secondary_cores = 20;
  config.cpu_rate_cap = 0.33;
  config.poll_interval = FromMicros(750);
  config.min_free_memory_bytes = 123456789;
  config.memory_check_every_n_polls = 7;
  config.egress_rate_cap_bps = 5e8;
  config.io_window_polls = 9;
  config.io_poll_interval = FromMillis(55);
  config.io_limits.push_back(IoOwnerLimit{901, 60e6, 0, 1, 2.0, 100});
  config.io_limits.push_back(IoOwnerLimit{900, 100e6, 20, 2, 1.0, 0});

  auto parsed = PerfIsoConfig::FromConfigMap(config.ToConfigMap());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PerfIsoConfig& back = *parsed;
  EXPECT_EQ(back.cpu_mode, config.cpu_mode);
  EXPECT_EQ(back.blind.buffer_cores, config.blind.buffer_cores);
  EXPECT_EQ(back.blind.proportional_step, config.blind.proportional_step);
  EXPECT_EQ(back.blind.placement, config.blind.placement);
  EXPECT_EQ(back.blind.initial_secondary_cores, config.blind.initial_secondary_cores);
  EXPECT_EQ(back.blind.update_on_every_poll, config.blind.update_on_every_poll);
  EXPECT_EQ(back.static_secondary_cores, config.static_secondary_cores);
  EXPECT_DOUBLE_EQ(back.cpu_rate_cap, config.cpu_rate_cap);
  EXPECT_EQ(back.poll_interval, config.poll_interval);
  EXPECT_EQ(back.min_free_memory_bytes, config.min_free_memory_bytes);
  EXPECT_EQ(back.memory_check_every_n_polls, config.memory_check_every_n_polls);
  EXPECT_DOUBLE_EQ(back.egress_rate_cap_bps, config.egress_rate_cap_bps);
  EXPECT_EQ(back.io_window_polls, config.io_window_polls);
  EXPECT_EQ(back.io_poll_interval, config.io_poll_interval);
  ASSERT_EQ(back.io_limits.size(), 2u);
  // io_limits come back sorted by owner id.
  EXPECT_EQ(back.io_limits[0].owner, 900);
  EXPECT_DOUBLE_EQ(back.io_limits[0].iops, 20);
  EXPECT_EQ(back.io_limits[1].owner, 901);
  EXPECT_DOUBLE_EQ(back.io_limits[1].bandwidth_bps, 60e6);
  EXPECT_DOUBLE_EQ(back.io_limits[1].min_iops_guarantee, 100);
}

TEST(PerfIsoConfigTest, DefaultsFromEmptyMap) {
  auto config = PerfIsoConfig::FromConfigMap(ConfigMap());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->cpu_mode, CpuIsolationMode::kBlindIsolation);
  EXPECT_EQ(config->blind.buffer_cores, 8);  // the paper's value for IndexServe
}

TEST(PerfIsoConfigTest, BadModeRejected) {
  ConfigMap map;
  map.Set("cpu.mode", "turbo");
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());
}

TEST(PerfIsoConfigTest, BadPlacementRejected) {
  ConfigMap map;
  map.Set("cpu.placement", "diagonal");
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());
}

TEST(PerfIsoConfigTest, StrictParseRejectsUnknownKeys) {
  // A typo fails loudly instead of silently running the default.
  ConfigMap map;
  map.Set("cpu.buffer_cores", 6);
  map.Set("cpu.bufer_cores", 12);  // typo
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());
  // PerfIso has no fabric knobs (ClusterOptions configures the fabric); of
  // the net.* keys only the egress cap exists.
  ConfigMap fabric;
  fabric.Set("net.tx_priority", "false");
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(fabric).ok());
  ConfigMap clean;
  clean.Set("cpu.buffer_cores", 6);
  auto strict = PerfIsoConfig::FromConfigMap(clean);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->blind.buffer_cores, 6);
}

TEST(PerfIsoConfigTest, MalformedIoOwnerIdIsAStatusErrorNotATerminate) {
  // Text configs reach this path (scenario specs embed perfiso.* keys), so a
  // non-numeric or overflowing owner id must come back as a Status.
  ConfigMap map;
  map.Set("io.owner.ml.iops", 5);
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());

  ConfigMap overflow;
  overflow.Set("io.owner.99999999999999999999.iops", 5);
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(overflow).ok());
}

TEST(PerfIsoConfigTest, StrictParseAcceptsFullCanonicalForm) {
  PerfIsoConfig config;
  config.io_limits.push_back(IoOwnerLimit{901, 60e6, 0, 1, 2.0, 100});
  auto strict = PerfIsoConfig::FromConfigMap(config.ToConfigMap());
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  ASSERT_EQ(strict->io_limits.size(), 1u);
  EXPECT_EQ(strict->io_limits[0].owner, 901);
}

TEST(PerfIsoConfigTest, ModeNamesRoundTrip) {
  for (CpuIsolationMode mode :
       {CpuIsolationMode::kNone, CpuIsolationMode::kBlindIsolation,
        CpuIsolationMode::kStaticCores, CpuIsolationMode::kCpuRateCap}) {
    auto parsed = ParseEnum<CpuIsolationMode>(NameOf(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  for (CorePlacement placement :
       {CorePlacement::kPackHigh, CorePlacement::kPackLow, CorePlacement::kSpread}) {
    auto parsed = ParseEnum<CorePlacement>(NameOf(placement));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, placement);
  }
}

TEST(PerfIsoConfigTest, ValidateRejectsBadValues) {
  PerfIsoConfig config;
  EXPECT_TRUE(config.Validate(48).ok());

  config.blind.buffer_cores = 48;
  EXPECT_FALSE(config.Validate(48).ok());
  config.blind.buffer_cores = 8;

  // Validation is scoped to the active mode: an out-of-range static-cores
  // value is ignored while in blind mode but rejected when it matters.
  config.static_secondary_cores = 49;
  EXPECT_TRUE(config.Validate(48).ok());
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  EXPECT_FALSE(config.Validate(48).ok());
  config.static_secondary_cores = 8;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;

  config.blind.idle_deadband = -1;
  EXPECT_FALSE(config.Validate(48).ok());
  config.blind.idle_deadband = 2;

  config.cpu_mode = CpuIsolationMode::kCpuRateCap;
  config.cpu_rate_cap = 0;
  EXPECT_FALSE(config.Validate(48).ok());
  config.cpu_rate_cap = 1.5;
  EXPECT_FALSE(config.Validate(48).ok());
  config.cpu_rate_cap = 0.05;
  EXPECT_TRUE(config.Validate(48).ok());

  config.poll_interval = 0;
  EXPECT_FALSE(config.Validate(48).ok());
  config.poll_interval = FromMillis(1);
  EXPECT_TRUE(config.Validate(48).ok());
}

// Validate must hold for configs built in code, not only parsed ones, so
// every range check fails on NaN.
TEST(PerfIsoConfigTest, ValidateRejectsNanRateCap) {
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kCpuRateCap;
  config.cpu_rate_cap = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate(48).ok());
}

TEST(PerfIsoConfigTest, ValidateChecksIoLimits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  PerfIsoConfig config;
  config.io_limits.push_back(IoOwnerLimit{901, 60e6, 0, 1, 2.0, 100});
  EXPECT_TRUE(config.Validate(48).ok());
  IoOwnerLimit& limit = config.io_limits[0];

  for (double bad : {nan, inf}) {
    limit.bandwidth_bps = bad;
    EXPECT_FALSE(config.Validate(48).ok());
    limit.bandwidth_bps = 60e6;
    limit.iops = bad;
    EXPECT_FALSE(config.Validate(48).ok());
    limit.iops = 0;
    limit.min_iops_guarantee = bad;
    EXPECT_FALSE(config.Validate(48).ok());
    limit.min_iops_guarantee = 100;
  }
  for (double bad : {nan, inf, 0.0, -1.0}) {
    limit.weight = bad;
    EXPECT_FALSE(config.Validate(48).ok()) << bad;
  }
  limit.weight = 2.0;
  for (int bad : {-1, IoScheduler::kNumPriorities}) {
    limit.priority = bad;
    EXPECT_FALSE(config.Validate(48).ok()) << bad;
  }
  limit.priority = IoScheduler::kNumPriorities - 1;
  EXPECT_TRUE(config.Validate(48).ok());
}

// --- Parse-boundary regressions: each value below used to be accepted (or,
// for poll_interval_us, was undefined behaviour in the float->int cast). ---

Status ParseOne(const std::string& key, const std::string& value) {
  ConfigMap map;
  map.Set(key, value);
  return PerfIsoConfig::FromConfigMap(map).status();
}

TEST(PerfIsoConfigTest, RejectsNanRateCap) {
  EXPECT_FALSE(ParseOne("cpu.rate_cap", "nan").ok());
}

TEST(PerfIsoConfigTest, RejectsBufferCoresOutsideInt) {
  EXPECT_FALSE(ParseOne("cpu.buffer_cores", "4294967304").ok());  // used to become 8
}

TEST(PerfIsoConfigTest, RejectsPollIntervalThatOverflowsNanoseconds) {
  EXPECT_FALSE(ParseOne("poll_interval_us", "9223372036854775807").ok());
}

TEST(PerfIsoConfigTest, RejectsIoOwnerPriorityOutsideInt) {
  EXPECT_FALSE(ParseOne("io.owner.7.priority", "4294967296").ok());  // used to become 0
}

}  // namespace
}  // namespace perfiso
