#include "src/disk/io_scheduler.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace perfiso {
namespace {

// A slow single-drive volume makes scheduling decisions visible.
struct Rig {
  Simulator sim;
  DiskSpec spec;
  std::unique_ptr<StripedVolume> volume;
  std::unique_ptr<IoScheduler> scheduler;

  explicit Rig(int max_outstanding = 1) {
    spec.model = "test";
    spec.read_latency = FromMillis(1);
    spec.write_latency = FromMillis(1);
    spec.seek_penalty = 0;
    spec.bandwidth_bps = 1e12;
    spec.concurrency = 1;
    volume = std::make_unique<StripedVolume>(spec, 1, "vol");
    scheduler = std::make_unique<IoScheduler>(&sim, volume.get(), max_outstanding);
  }

  void Submit(int owner, int64_t bytes, std::function<void(SimTime)> cb = nullptr) {
    IoRequest request;
    request.owner = owner;
    request.bytes = bytes;
    request.sequential = true;
    request.on_complete = std::move(cb);
    scheduler->Submit(std::move(request));
  }
};

TEST(IoSchedulerTest, HigherPriorityDispatchesFirst) {
  Rig rig;
  rig.scheduler->RegisterOwner(1, /*priority=*/0, /*weight=*/1);
  rig.scheduler->RegisterOwner(2, /*priority=*/2, /*weight=*/1);
  std::vector<int> completion_order;
  // Fill the device with one request so the next two queue in the scheduler.
  rig.Submit(2, 512, [&](SimTime) { completion_order.push_back(2); });
  rig.Submit(2, 512, [&](SimTime) { completion_order.push_back(2); });
  rig.Submit(1, 512, [&](SimTime) { completion_order.push_back(1); });
  rig.sim.RunUntilEmpty();
  ASSERT_EQ(completion_order.size(), 3u);
  // First was already dispatched; the high-priority request jumps the queue.
  EXPECT_EQ(completion_order[1], 1);
}

TEST(IoSchedulerTest, DwrrSharesByWeightWithinBand) {
  Rig rig;
  rig.scheduler->RegisterOwner(1, 1, /*weight=*/3);
  rig.scheduler->RegisterOwner(2, 1, /*weight=*/1);
  int done1 = 0;
  int done2 = 0;
  for (int i = 0; i < 200; ++i) {
    rig.Submit(1, 64 * 1024, [&](SimTime) { ++done1; });
    rig.Submit(2, 64 * 1024, [&](SimTime) { ++done2; });
  }
  // Run long enough for ~100 completions (1 ms each).
  rig.sim.RunUntil(FromMillis(100));
  ASSERT_GT(done1 + done2, 80);
  const double ratio = static_cast<double>(done1) / std::max(1, done2);
  EXPECT_NEAR(ratio, 3.0, 0.8);
}

TEST(IoSchedulerTest, BandwidthCapLimitsThroughput) {
  Rig rig(/*max_outstanding=*/4);
  rig.scheduler->RegisterOwner(1, 1, 1);
  ASSERT_TRUE(rig.scheduler->SetBandwidthCap(1, 1e6).ok());  // 1 MB/s
  int64_t bytes_done = 0;
  for (int i = 0; i < 1000; ++i) {
    rig.Submit(1, 64 * 1024, [&](SimTime) { bytes_done += 64 * 1024; });
  }
  rig.sim.RunUntil(2 * kSecond);
  // 2 s at 1 MB/s plus the initial 1 s burst allowance.
  EXPECT_LE(bytes_done, static_cast<int64_t>(3.2e6));
  EXPECT_GE(bytes_done, static_cast<int64_t>(2.0e6));
}

TEST(IoSchedulerTest, IopsCapLimitsRate) {
  Rig rig(4);
  rig.scheduler->RegisterOwner(1, 1, 1);
  ASSERT_TRUE(rig.scheduler->SetIopsCap(1, 20).ok());
  int ops = 0;
  for (int i = 0; i < 500; ++i) {
    rig.Submit(1, 512, [&](SimTime) { ++ops; });
  }
  rig.sim.RunUntil(2 * kSecond);
  EXPECT_LE(ops, 50);  // 2 s * 20 IOPS + burst
  EXPECT_GE(ops, 35);
}

TEST(IoSchedulerTest, ClearingCapRestoresThroughput) {
  Rig rig(4);
  rig.scheduler->RegisterOwner(1, 1, 1);
  ASSERT_TRUE(rig.scheduler->SetIopsCap(1, 10).ok());
  int ops = 0;
  for (int i = 0; i < 500; ++i) {
    rig.Submit(1, 512, [&](SimTime) { ++ops; });
  }
  rig.sim.RunUntil(kSecond);
  const int capped_ops = ops;
  ASSERT_TRUE(rig.scheduler->SetIopsCap(1, 0).ok());
  rig.sim.RunUntil(2 * kSecond);
  // Uncapped, the 1 ms device does ~1000 ops/s.
  EXPECT_GT(ops - capped_ops, 300);
}

TEST(IoSchedulerTest, UnregisteredOwnerGetsDefaults) {
  Rig rig;
  rig.scheduler->RegisterOwner(1, /*priority=*/1, /*weight=*/1);
  std::vector<int> completion_order;
  // Occupy the device so the next two queue in the scheduler; the
  // unregistered owner submits first but sits in the lowest band.
  rig.Submit(1, 512, [&](SimTime) { completion_order.push_back(1); });
  rig.Submit(77, 512, [&](SimTime) { completion_order.push_back(77); });
  rig.Submit(1, 512, [&](SimTime) { completion_order.push_back(1); });
  rig.sim.RunUntilEmpty();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 1, 77}));
}

TEST(IoSchedulerTest, SettingKnobsOnUnknownOwnerFails) {
  Rig rig;
  EXPECT_FALSE(rig.scheduler->SetPriority(5, 0).ok());
  EXPECT_FALSE(rig.scheduler->SetBandwidthCap(5, 100).ok());
  EXPECT_FALSE(rig.scheduler->SetIopsCap(5, 100).ok());
}

TEST(IoSchedulerTest, PriorityChangeAppliesToQueuedWork) {
  Rig rig;
  rig.scheduler->RegisterOwner(1, 2, 1);
  rig.scheduler->RegisterOwner(2, 2, 1);
  std::vector<int> order;
  rig.Submit(1, 512, [&](SimTime) { order.push_back(1); });  // occupies device
  for (int i = 0; i < 3; ++i) {
    rig.Submit(1, 512, [&](SimTime) { order.push_back(1); });
    rig.Submit(2, 512, [&](SimTime) { order.push_back(2); });
  }
  ASSERT_TRUE(rig.scheduler->SetPriority(2, 0).ok());
  rig.sim.RunUntilEmpty();
  // After the in-flight request, owner 2's queued requests finish first.
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 2);
}

TEST(IoSchedulerTest, StatsTrackLifecycle) {
  Rig rig;
  rig.scheduler->RegisterOwner(1, 0, 1);
  for (int i = 0; i < 5; ++i) {
    rig.Submit(1, 1024);
  }
  rig.sim.RunUntilEmpty();
  const auto& stats = rig.scheduler->Stats(1);
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.dispatched, 5);
  EXPECT_EQ(stats.ops, 5);
  EXPECT_EQ(stats.bytes, 5 * 1024);
  EXPECT_EQ(stats.total_latency_us.Count(), 5u);
  EXPECT_EQ(rig.scheduler->outstanding(), 0);
  EXPECT_EQ(rig.scheduler->occupied_slots(), 0);
}

}  // namespace
}  // namespace perfiso
