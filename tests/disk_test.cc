#include "src/disk/disk.h"

#include <gtest/gtest.h>

#include "src/disk/io_scheduler.h"
#include "src/sim/simulator.h"

namespace perfiso {
namespace {

// A volume behind the scheduler that owns its requests; `max_outstanding`
// large enough that drive queues, not the scheduler, hold the backlog.
struct Stack {
  Simulator sim;
  StripedVolume volume;
  IoScheduler scheduler;

  Stack(const DiskSpec& spec, int drives, int max_outstanding = 64)
      : volume(spec, drives, "vol"), scheduler(&sim, &volume, max_outstanding) {}

  void Submit(int owner, int64_t bytes, std::function<void(SimTime)> done = nullptr) {
    IoRequest request;
    request.owner = owner;
    request.bytes = bytes;
    request.on_complete = std::move(done);
    scheduler.Submit(std::move(request));
  }
};

TEST(DiskDeviceTest, ServiceTimeComposition) {
  DiskSpec spec;
  spec.read_latency = FromMicros(100);
  spec.write_latency = FromMicros(50);
  spec.seek_penalty = FromMillis(5);
  spec.bandwidth_bps = 1e9;  // 1 GB/s -> 64 KB transfers in 65.536 us
  spec.concurrency = 1;
  DiskDevice device(spec, "d0");

  IoRequest sequential_read;
  sequential_read.op = IoOp::kRead;
  sequential_read.bytes = 64 * 1024;
  sequential_read.sequential = true;
  EXPECT_EQ(device.ServiceTime(sequential_read), FromMicros(100) + 65536);

  IoRequest random_write = sequential_read;
  random_write.op = IoOp::kWrite;
  random_write.sequential = false;
  EXPECT_EQ(device.ServiceTime(random_write), FromMicros(50) + FromMillis(5) + 65536);
}

TEST(DiskDeviceTest, CompletionCallbackAtServiceTime) {
  Stack stack(DiskSpec::Ssd(), 1);
  SimTime done_at = -1;
  stack.Submit(0, 4096, [&](SimTime now) { done_at = now; });
  stack.sim.RunUntilEmpty();
  EXPECT_EQ(done_at, DiskDevice(DiskSpec::Ssd(), "ref").ServiceTime(IoRequest{}));
  EXPECT_EQ(stack.volume.CompletedOps(), 1);
  EXPECT_EQ(stack.scheduler.Stats(0).bytes, 4096);
}

TEST(DiskDeviceTest, ConcurrencyLimitQueues) {
  DiskSpec spec;
  spec.read_latency = FromMillis(1);
  spec.write_latency = FromMillis(1);
  spec.seek_penalty = 0;
  spec.bandwidth_bps = 1e12;  // transfer time negligible
  spec.concurrency = 2;
  Stack stack(spec, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    stack.Submit(0, 1, [&](SimTime now) { completions.push_back(now); });
  }
  // All four sit at the drive: two in service, two in its queue.
  EXPECT_EQ(stack.scheduler.outstanding(), 4);
  EXPECT_EQ(stack.sim.PendingEvents(), 2u);
  stack.sim.RunUntilEmpty();
  ASSERT_EQ(completions.size(), 4u);
  // Two waves of two: ~1 ms and ~2 ms.
  EXPECT_EQ(completions[0], completions[1]);
  EXPECT_EQ(completions[2], completions[3]);
  EXPECT_EQ(completions[2], 2 * completions[0]);
}

// Device-reset model on handle-based completions: cancelled in-service I/O
// leaves the simulator queue eagerly (no dead completion events), callbacks
// never run, every slot goes back to the pool, and the stack keeps working
// afterwards.
TEST(DiskDeviceTest, CancelAllDropsInflightAndQueuedRequests) {
  DiskSpec spec = DiskSpec::Ssd();
  spec.concurrency = 2;
  Stack stack(spec, 1, /*max_outstanding=*/4);

  int completions = 0;
  for (int i = 0; i < 5; ++i) {  // 2 in service + 2 in the drive queue + 1 queued
    stack.Submit(0, 4096, [&completions](SimTime) { ++completions; });
  }
  ASSERT_EQ(stack.scheduler.outstanding(), 4);
  ASSERT_EQ(stack.scheduler.queued(), 1);
  ASSERT_EQ(stack.scheduler.occupied_slots(), 5);
  ASSERT_EQ(stack.sim.PendingEvents(), 2u);  // one completion event per op in service

  EXPECT_EQ(stack.scheduler.CancelAll(), 5);
  EXPECT_EQ(stack.sim.PendingEvents(), 0u);  // completions left the queue eagerly
  EXPECT_EQ(stack.scheduler.occupied_slots(), 0);
  EXPECT_EQ(stack.scheduler.outstanding(), 0);
  EXPECT_EQ(stack.scheduler.queued(), 0);
  stack.sim.RunUntilEmpty();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(stack.volume.CompletedOps(), 0);

  // The stack still serves new work after the reset.
  stack.Submit(0, 4096, [&completions](SimTime) { ++completions; });
  stack.sim.RunUntilEmpty();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(stack.volume.CompletedOps(), 1);
  EXPECT_EQ(stack.scheduler.occupied_slots(), 0);
}

TEST(StripedVolumeTest, CancelAllResetsEveryDrive) {
  Stack stack(DiskSpec::Hdd(), 4);
  int completions = 0;
  for (int i = 0; i < 8; ++i) {
    stack.Submit(0, 4096, [&completions](SimTime) { ++completions; });
  }
  EXPECT_EQ(stack.sim.PendingEvents(), 4u);  // one op in service per drive
  EXPECT_EQ(stack.scheduler.CancelAll(), 8);
  stack.sim.RunUntilEmpty();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(stack.scheduler.occupied_slots(), 0);
}

TEST(DiskDeviceTest, HddSlowerThanSsdForRandomReads) {
  DiskDevice ssd(DiskSpec::Ssd(), "ssd");
  DiskDevice hdd(DiskSpec::Hdd(), "hdd");
  IoRequest random_read;
  random_read.bytes = 8192;
  EXPECT_GT(hdd.ServiceTime(random_read), 10 * ssd.ServiceTime(random_read));
}

TEST(StripedVolumeTest, RoundRobinAcrossDrives) {
  DiskSpec spec = DiskSpec::Ssd();
  spec.concurrency = 1;
  Stack stack(spec, 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    stack.Submit(0, 4096, [&](SimTime now) { completions.push_back(now); });
  }
  // All four go to distinct drives, so all complete at the same instant.
  stack.sim.RunUntilEmpty();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_EQ(completions.front(), completions.back());
  EXPECT_EQ(stack.volume.CompletedOps(), 4);
}

TEST(StripedVolumeTest, PerOwnerStats) {
  Stack stack(DiskSpec::Ssd(), 2);
  for (int i = 0; i < 6; ++i) {
    stack.Submit(i % 2 == 0 ? 10 : 20, 1024);
  }
  stack.sim.RunUntilEmpty();
  EXPECT_EQ(stack.volume.OwnerStats(10).ops, 3);
  EXPECT_EQ(stack.volume.OwnerStats(20).ops, 3);
  EXPECT_EQ(stack.volume.OwnerStats(10).bytes, 3 * 1024);
  EXPECT_EQ(stack.volume.OwnerStats(99).ops, 0);
  EXPECT_GT(stack.volume.OwnerStats(10).total_latency_us.Mean(), 0);
  // The volume's view is the scheduler's table.
  EXPECT_EQ(&stack.volume.OwnerStats(10), &stack.scheduler.Stats(10));
}

}  // namespace
}  // namespace perfiso
