#include "src/net/fabric.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "src/net/netdev.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/token_bucket.h"
#include "src/workload/bullies.h"

namespace perfiso {
namespace {

// 100 MB/s links keep the arithmetic exact: a 64 KB chunk serializes in
// exactly 655,360 ns.
FabricConfig TestConfig() {
  FabricConfig config;
  config.link_rate_bps = 1e8;
  config.uplink_oversubscription = 4.0;
  config.machines_per_rack = 64;  // single rack unless a test says otherwise
  config.base_latency = FromMicros(100);
  config.chunk_bytes = 64 * 1024;
  return config;
}

TEST(NetTest, ConfigValidateAcceptsDefaultsAndTestConfig) {
  EXPECT_TRUE(FabricConfig{}.Validate().ok());
  EXPECT_TRUE(TestConfig().Validate().ok());
}

TEST(NetTest, ConfigValidateRejectsNonPositiveBaseLatency) {
  // Every physical hop costs propagation plus switching time; a zero or
  // negative delay would deliver flows faster than light. Validate must
  // reject it up front.
  FabricConfig config = TestConfig();
  config.base_latency = 0;
  Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("base_latency"), std::string::npos);
  config.base_latency = -FromMicros(1);
  EXPECT_FALSE(config.Validate().ok());
}

TEST(NetTest, ConfigValidateRejectsOtherNonPhysicalSettings) {
  {
    FabricConfig config = TestConfig();
    config.link_rate_bps = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    FabricConfig config = TestConfig();
    config.uplink_oversubscription = 0.5;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    FabricConfig config = TestConfig();
    config.machines_per_rack = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    FabricConfig config = TestConfig();
    config.chunk_bytes = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    FabricConfig config = TestConfig();
    config.request_bytes = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
}

TEST(NetTest, UncontendedFlowPaysSerializationAndPropagation) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("a");
  fabric.AttachMachine("b");
  SimTime delivered = -1;
  fabric.Send(0, 1, 1024 * 1024, NetClass::kPrimary, [&](SimTime now) { delivered = now; });
  sim.RunUntilEmpty();
  // 1 MiB serializes in 1048576/1e8 s = ~10.49 ms at TX and again at RX,
  // plus the one-way base latency. Intra-rack, so no uplink hop.
  const auto serialize = static_cast<SimDuration>(1024 * 1024 / 1e8 * kSecond);
  const SimTime expected = 2 * serialize + FromMicros(100);
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(fabric.flows_in_flight(), 0);
  EXPECT_EQ(fabric.endpoint_stats(1).flows_delivered[0], 1);
  EXPECT_EQ(fabric.endpoint_stats(0).bytes_sent[0], 1024 * 1024);
}

TEST(NetTest, LoopbackSkipsTheNic) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("a");
  SimTime delivered = -1;
  fabric.Send(0, 0, 1024 * 1024, NetClass::kPrimary, [&](SimTime now) { delivered = now; });
  sim.RunUntilEmpty();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.netdev(0).tx().stats().bytes_serialized[0], 0);
}

TEST(NetTest, PrimaryPreemptsSecondaryInTxQueues) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("a");
  fabric.AttachMachine("b");
  SimTime secondary_done = -1;
  SimTime primary_done = -1;
  // The bulk secondary flow is already serializing when the primary RPC
  // arrives; the RPC waits at most one chunk, not 10 MB.
  fabric.Send(0, 1, 10 * 1024 * 1024, NetClass::kSecondary,
              [&](SimTime now) { secondary_done = now; });
  fabric.Send(0, 1, 16 * 1024, NetClass::kPrimary, [&](SimTime now) { primary_done = now; });
  sim.RunUntilEmpty();
  ASSERT_GT(primary_done, 0);
  ASSERT_GT(secondary_done, 0);
  EXPECT_LT(primary_done, secondary_done);
  // One 64 KB chunk in front (655 us) + own TX + base + RX: well under 2 ms.
  EXPECT_LT(primary_done, FromMillis(2));
  EXPECT_GT(secondary_done, FromMillis(100));  // 10 MB twice at 100 MB/s
}

TEST(NetTest, FifoTxHeadOfLineBlocksWithoutPriorityClasses) {
  Simulator sim;
  FabricConfig config = TestConfig();
  config.tx_priority = false;
  Fabric fabric(&sim, config);
  fabric.AttachMachine("a");
  fabric.AttachMachine("b");
  SimTime primary_done = -1;
  fabric.Send(0, 1, 10 * 1024 * 1024, NetClass::kSecondary, nullptr);
  fabric.Send(0, 1, 16 * 1024, NetClass::kPrimary, [&](SimTime now) { primary_done = now; });
  sim.RunUntilEmpty();
  // The RPC sits behind the whole 10 MB block: > 100 ms instead of < 2 ms.
  EXPECT_GT(primary_done, FromMillis(100));
}

TEST(NetTest, SecondaryChunksDrainTheEgressBucket) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("a");
  fabric.AttachMachine("b");
  std::optional<TokenBucket> bucket(std::in_place, 1e6, 0.25e6);  // 1 MB/s cap, 250 KB burst
  fabric.netdev(0).tx().SetEgressBucket(&bucket);
  SimTime secondary_done = -1;
  SimTime primary_done = -1;
  fabric.Send(0, 1, 500 * 1024, NetClass::kSecondary,
              [&](SimTime now) { secondary_done = now; });
  fabric.Send(0, 1, 500 * 1024, NetClass::kPrimary, [&](SimTime now) { primary_done = now; });
  sim.RunUntilEmpty();
  // The burst covers half the secondary flow; the rest trickles at 1 MB/s:
  // (512000 - 256000) / 1e6 = ~0.26 s, dwarfing serialization.
  EXPECT_GT(secondary_done, FromMillis(200));
  EXPECT_LT(secondary_done, FromMillis(400));
  // Primary traffic is never shaped.
  EXPECT_LT(primary_done, FromMillis(15));
}

TEST(NetTest, TinyEgressBurstStillMakesProgress) {
  // Regression: a bucket whose burst is smaller than chunk_bytes (here 50 KB
  // vs 64 KB) must shape in smaller chunks, not livelock waiting for tokens
  // that can never accumulate.
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("a");
  fabric.AttachMachine("b");
  std::optional<TokenBucket> bucket(std::in_place, 200e3, 50e3);
  fabric.netdev(0).tx().SetEgressBucket(&bucket);
  SimTime delivered = -1;
  fabric.Send(0, 1, 128 * 1024, NetClass::kSecondary, [&](SimTime now) { delivered = now; });
  sim.RunUntilEmpty();
  ASSERT_GT(delivered, 0);
  // ~(131072 - 50000) / 200e3 = ~0.4 s of trickle after the initial burst.
  EXPECT_GT(delivered, FromMillis(300));
  EXPECT_LT(delivered, FromMillis(700));
}

TEST(NetTest, PlatformEgressCapShapesFabricFlows) {
  // End-to-end plumbing: PerfIso's SetEgressRateCap installs the bucket that
  // the machine's NIC consults, and clearing the cap unshapes new flows.
  Simulator sim;
  MachineSpec spec;
  SimMachine machine(&sim, spec, "m0");
  SimPlatform platform(&machine, nullptr);
  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("m0");
  fabric.AttachMachine("peer");
  fabric.netdev(0).tx().SetEgressBucket(&platform.egress_bucket());

  ASSERT_TRUE(platform.SetEgressRateCap(1e6).ok());
  SimTime capped_done = -1;
  fabric.Send(0, 1, 1024 * 1024, NetClass::kSecondary, [&](SimTime now) { capped_done = now; });
  sim.RunUntilEmpty();
  EXPECT_GT(capped_done, FromMillis(700));  // ~(1 MB - burst) at 1 MB/s

  ASSERT_TRUE(platform.SetEgressRateCap(0).ok());
  const SimTime start = sim.Now();
  SimTime uncapped_done = -1;
  fabric.Send(0, 1, 1024 * 1024, NetClass::kSecondary,
              [&](SimTime now) { uncapped_done = now; });
  sim.RunUntilEmpty();
  EXPECT_LT(uncapped_done - start, FromMillis(25));  // pure serialization again
}

TEST(NetTest, FanInBecomesIncastAtTheReceiverRxLink) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  const int kSenders = 8;
  fabric.AttachMachine("agg");
  for (int i = 0; i < kSenders; ++i) {
    fabric.AttachMachine("leaf" + std::to_string(i));
  }
  int delivered = 0;
  SimTime last = 0;
  for (int i = 1; i <= kSenders; ++i) {
    fabric.Send(i, 0, 256 * 1024, NetClass::kPrimary, [&](SimTime now) {
      ++delivered;
      last = now;
    });
  }
  sim.RunUntilEmpty();
  EXPECT_EQ(delivered, kSenders);
  // All eight 256 KB responses serialize in parallel at their own TX links
  // (~2.6 ms), converge, and then share the aggregator's one RX link:
  // 2 MB at 100 MB/s = 20 ms of serialization for the last response.
  EXPECT_GT(last, FromMillis(20));
  // The backlog gauge saw most of the convergence queued at once.
  EXPECT_GT(fabric.netdev(0).rx().stats().max_queued_bytes, 3 * 256 * 1024);
  EXPECT_EQ(fabric.netdev(0).rx().stats().flows_completed[0], kSenders);
}

TEST(NetTest, CrossRackFlowsShareTheOversubscribedUplink) {
  Simulator sim;
  FabricConfig config = TestConfig();
  config.machines_per_rack = 2;  // endpoints {0,1} rack 0, {2,3} rack 1
  Fabric fabric(&sim, config);
  for (int i = 0; i < 4; ++i) {
    fabric.AttachMachine("m" + std::to_string(i));
  }
  ASSERT_EQ(fabric.num_racks(), 2);

  SimTime intra_done = -1;
  fabric.Send(0, 1, 1024 * 1024, NetClass::kPrimary, [&](SimTime now) { intra_done = now; });
  sim.RunUntilEmpty();
  EXPECT_EQ(fabric.rack_uplink(0).stats().bytes_serialized[0], 0);

  const SimTime start = sim.Now();
  SimTime cross_done = -1;
  fabric.Send(0, 3, 1024 * 1024, NetClass::kPrimary, [&](SimTime now) { cross_done = now; });
  sim.RunUntilEmpty();
  EXPECT_EQ(fabric.rack_uplink(0).stats().bytes_serialized[0], 1024 * 1024);
  EXPECT_EQ(fabric.rack_downlink(1).stats().bytes_serialized[0], 1024 * 1024);
  // Uplinks run at 2 * 100 MB/s / 4 = 50 MB/s: two extra 20 ms store-and-
  // forward hops make the cross-rack transfer much slower than intra-rack.
  EXPECT_GT(cross_done - start, intra_done + FromMillis(35));
}

TEST(NetTest, NetworkBullyThroughputHeldAtTheEgressCap) {
  Simulator sim;
  MachineSpec spec;
  spec.num_cores = 4;
  SimMachine machine(&sim, spec, "bully-host");
  SimPlatform platform(&machine, nullptr);
  JobId job = machine.CreateJob("secondary");
  platform.AddSecondaryJob(job);

  Fabric fabric(&sim, TestConfig());
  fabric.AttachMachine("bully-host");
  fabric.AttachMachine("peer1");
  fabric.AttachMachine("peer2");
  fabric.netdev(0).tx().SetEgressBucket(&platform.egress_bucket());

  NetworkBully::Options options;
  options.block_bytes = 256 * 1024;
  options.streams = 2;
  options.peers = {1, 2};
  NetworkBully bully(&sim, &machine, &fabric, 0, job, options, Rng(7));
  bully.Start();

  const double cap = 5e6;  // 5 MB/s out of a 100 MB/s NIC
  ASSERT_TRUE(platform.SetEgressRateCap(cap).ok());
  sim.RunUntil(4 * kSecond);
  bully.Stop();
  const double achieved = bully.AchievedBps(0, sim.Now(), 0);
  // Token burst (cap/4) pads the start; stay within ~±25% of the cap.
  EXPECT_GT(achieved, 0.75 * cap);
  EXPECT_LT(achieved, 1.35 * cap);
  // Everything the bully put on the wire was secondary-class.
  EXPECT_EQ(fabric.netdev(0).tx().stats().bytes_serialized[0], 0);
  EXPECT_GT(fabric.netdev(0).tx().stats().bytes_serialized[1], 0);
}

}  // namespace
}  // namespace perfiso
