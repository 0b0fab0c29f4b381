#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/workload/bullies.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

TEST(QueryTraceTest, GeneratesRequestedCountWithBoundedFanout) {
  Rng rng(1);
  TraceSpec spec;
  spec.fanout_min = 2;
  spec.fanout_max = 9;
  auto trace = GenerateTrace(spec, 5000, &rng);
  ASSERT_EQ(trace.size(), 5000u);
  for (const QueryWork& q : trace) {
    EXPECT_GE(q.fanout, 2);
    EXPECT_LE(q.fanout, 9);
    EXPECT_GT(q.size_factor, 0);
  }
}

TEST(QueryTraceTest, SizeFactorMeanIsOne) {
  Rng rng(2);
  TraceSpec spec;
  auto trace = GenerateTrace(spec, 100000, &rng);
  MeanVar mv;
  for (const QueryWork& q : trace) {
    mv.Add(q.size_factor);
  }
  EXPECT_NEAR(mv.Mean(), 1.0, 0.02);
}

TEST(QueryTraceTest, DeterministicForSeed) {
  Rng rng_a(7);
  Rng rng_b(7);
  auto a = GenerateTrace(TraceSpec{}, 100, &rng_a);
  auto b = GenerateTrace(TraceSpec{}, 100, &rng_b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fanout, b[i].fanout);
    EXPECT_DOUBLE_EQ(a[i].size_factor, b[i].size_factor);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(OpenLoopClientTest, RateIsApproximatelyPoisson) {
  Simulator sim;
  Rng rng(3);
  auto trace = GenerateTrace(TraceSpec{}, 100, &rng);
  int submitted = 0;
  std::vector<SimTime> arrivals;
  OpenLoopClient client(&sim, trace, /*qps=*/1000, Rng(4), [&](const QueryWork&, SimTime now) {
    ++submitted;
    arrivals.push_back(now);
  });
  client.Run(0, 10 * kSecond);
  sim.RunUntilEmpty();
  // 10 s at 1000 QPS: ~10000 arrivals (Poisson, sd ~100).
  EXPECT_NEAR(submitted, 10000, 400);
  // Open loop: submissions continue regardless of completion (nothing
  // consumes them here).
  EXPECT_EQ(client.submitted(), static_cast<uint64_t>(submitted));
  // Inter-arrival CV should be ~1 for a Poisson process.
  MeanVar gaps;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps.Add(static_cast<double>(arrivals[i] - arrivals[i - 1]));
  }
  EXPECT_NEAR(gaps.StdDev() / gaps.Mean(), 1.0, 0.1);
}

TEST(OpenLoopClientTest, WrapsTraceWithIdenticalQueryWork) {
  Simulator sim;
  Rng rng(5);
  auto trace = GenerateTrace(TraceSpec{}, 10, &rng);
  std::vector<QueryWork> submitted;
  OpenLoopClient client(&sim, trace, 1000, Rng(6),
                        [&](const QueryWork& q, SimTime) { submitted.push_back(q); });
  client.Run(0, kSecond);
  sim.RunUntilEmpty();
  ASSERT_GT(submitted.size(), 20u);
  // Wraparound must replay the *same work*, not just the same ids: every
  // submission i equals trace[i % 10] field for field.
  for (size_t i = 0; i < submitted.size(); ++i) {
    const QueryWork& expected = trace[i % trace.size()];
    EXPECT_EQ(submitted[i].id, expected.id) << i;
    EXPECT_EQ(submitted[i].fanout, expected.fanout) << i;
    EXPECT_DOUBLE_EQ(submitted[i].size_factor, expected.size_factor) << i;
    EXPECT_EQ(submitted[i].seed, expected.seed) << i;
  }
}

// Regression for the first-arrival bug: ScheduleNext used to submit query #0
// at exactly t=start with no exponential gap, so every run began with a
// deterministic arrival and short-window rate estimates were biased high.
TEST(OpenLoopClientTest, FirstArrivalGetsAnExponentialGap) {
  // Across many seeds the first-arrival time must behave like Exp(1/rate):
  // mean 1/rate, and essentially never exactly at t=start.
  const double kRate = 1000;
  MeanVar first_arrivals;
  int at_start = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    Simulator sim;
    Rng rng(9);
    auto trace = GenerateTrace(TraceSpec{}, 4, &rng);
    SimTime first = -1;
    OpenLoopClient client(&sim, std::move(trace), kRate, Rng(seed + 1),
                          [&first](const QueryWork&, SimTime now) {
                            if (first < 0) {
                              first = now;
                            }
                          });
    client.Run(0, kSecond);
    sim.RunUntilEmpty();
    ASSERT_GE(first, 0) << "no arrival in a 1 s window at 1000 QPS";
    at_start += first == 0 ? 1 : 0;
    first_arrivals.Add(static_cast<double>(first));
  }
  EXPECT_EQ(at_start, 0) << "first query submitted at exactly t=start";
  // Mean of Exp(1 ms) over 400 draws: sd of the mean is 1ms/20.
  EXPECT_NEAR(first_arrivals.Mean(), static_cast<double>(kMillisecond),
              0.2 * static_cast<double>(kMillisecond));
}

// The documented 1-tick floor: at absurd rates every drawn gap rounds to 0
// and clamps to 1 ns, so arrivals advance one tick at a time instead of
// stacking at one timestamp (and instead of the old max(1.0, gap) clamp
// biasing moderate-rate draws, the floor only binds at ~1e9 QPS).
TEST(OpenLoopClientTest, GapsAreFlooredAtOneTick) {
  Simulator sim;
  Rng rng(10);
  auto trace = GenerateTrace(TraceSpec{}, 8, &rng);
  std::vector<SimTime> arrivals;
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/1e12, Rng(11),
                        [&](const QueryWork&, SimTime now) { arrivals.push_back(now); });
  client.Run(0, kMicrosecond);
  sim.RunUntilEmpty();
  // One arrival per nanosecond tick, none before t=1.
  ASSERT_EQ(arrivals.size(), static_cast<size_t>(kMicrosecond) - 1);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], static_cast<SimTime>(i + 1));
  }
}

// Regression: at a tiny positive rate the drawn gap (~1e21 ns here) is past
// int64. llround's out-of-range result used to be floored to a 1 ns gap, so
// the client submitted dozens of queries one nanosecond apart in a window
// that expects none. A gap past the window now ends the client before the
// rounding.
TEST(OpenLoopClientTest, TinyRateEndsTheClientBeforeRounding) {
  Simulator sim;
  Rng rng(14);
  auto trace = GenerateTrace(TraceSpec{}, 4, &rng);
  uint64_t submitted = 0;
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/1e-12, Rng(15),
                        [&](const QueryWork&, SimTime) { ++submitted; });
  client.Run(0, 10 * kSecond);
  sim.RunUntilEmpty();
  EXPECT_EQ(submitted, 0u);
  EXPECT_EQ(client.submitted(), 0u);
}

// The early end is exact: at constant rates (one draw per arrival) the
// client reproduces, arrival for arrival, the plain rule "advance by
// max(1, llround(gap)) and stop at the window end" — including low rates
// whose gaps often run past the window.
TEST(OpenLoopClientTest, ArrivalsMatchTheRoundedGapRule) {
  for (double qps : {2000.0, 3.0, 0.2}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const SimTime end = 5 * kSecond;
      std::vector<SimTime> expected;
      Rng reference(seed);
      for (SimTime at = 0;;) {
        const double gap = reference.Exponential(static_cast<double>(kSecond) / qps);
        at += std::max<SimDuration>(1, std::llround(gap));
        if (at >= end) {
          break;
        }
        expected.push_back(at);
      }
      Simulator sim;
      Rng rng(16);
      auto trace = GenerateTrace(TraceSpec{}, 4, &rng);
      std::vector<SimTime> arrivals;
      OpenLoopClient client(&sim, std::move(trace), qps, Rng(seed),
                            [&](const QueryWork&, SimTime now) { arrivals.push_back(now); });
      client.Run(0, end);
      sim.RunUntilEmpty();
      EXPECT_EQ(arrivals, expected) << "qps=" << qps << " seed=" << seed;
    }
  }
}

// At moderate rates the floor must not bias the realized rate (the old
// max(1.0, gap) clamp added a full nanosecond to a measurable fraction of
// draws at high-but-realistic rates).
TEST(OpenLoopClientTest, RealizedRateIsUnbiasedAtHighRate) {
  Simulator sim;
  Rng rng(12);
  auto trace = GenerateTrace(TraceSpec{}, 64, &rng);
  uint64_t submitted = 0;
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/1e6, Rng(13),
                        [&](const QueryWork&, SimTime) { ++submitted; });
  client.Run(0, kSecond);
  sim.RunUntilEmpty();
  // 1e6 expected arrivals, Poisson sd 1e3: 4 sigma.
  EXPECT_NEAR(static_cast<double>(submitted), 1e6, 4e3);
}

TEST(ClosedLoopClientTest, KeepsAtMostOutstandingInFlight) {
  Simulator sim;
  Rng rng(14);
  auto trace = GenerateTrace(TraceSpec{}, 16, &rng);
  ClosedLoopClient* client_ptr = nullptr;
  std::vector<SimTime> completions;
  int in_flight = 0;
  int max_in_flight = 0;
  ClosedLoopClient client(&sim, std::move(trace), /*outstanding=*/4,
                          /*think_time=*/FromMillis(1), Rng(15),
                          [&](const QueryWork&, SimTime now) {
                            ++in_flight;
                            max_in_flight = std::max(max_in_flight, in_flight);
                            // Serve each query 500 us later.
                            sim.Schedule(now + 500 * kMicrosecond, [&] {
                              --in_flight;
                              completions.push_back(sim.Now());
                              client_ptr->OnComplete();
                            });
                          });
  client_ptr = &client;
  client.Run(0, kSecond);
  sim.RunUntilEmpty();
  EXPECT_LE(max_in_flight, 4);
  EXPECT_GT(client.submitted(), 100u);
  // Per-user cycle = think (1 ms mean) + service (0.5 ms): ~2,667 completions
  // from 4 users in one second; generous bounds to stay seed-robust.
  EXPECT_GT(completions.size(), 1500u);
  EXPECT_LT(completions.size(), 4000u);
  EXPECT_EQ(client.in_flight(), 0);
}

TEST(ClosedLoopClientTest, StopsSubmittingAfterWindowEnds) {
  Simulator sim;
  Rng rng(16);
  auto trace = GenerateTrace(TraceSpec{}, 16, &rng);
  ClosedLoopClient* client_ptr = nullptr;
  ClosedLoopClient client(&sim, std::move(trace), /*outstanding=*/2,
                          /*think_time=*/FromMillis(1), Rng(17),
                          [&](const QueryWork&, SimTime now) {
                            sim.Schedule(now + 100 * kMicrosecond,
                                         [&] { client_ptr->OnComplete(); });
                          });
  client_ptr = &client;
  client.Run(0, 100 * kMillisecond);
  sim.RunUntil(100 * kMillisecond);
  const uint64_t at_window_end = client.submitted();
  sim.RunUntilEmpty();
  // In-flight queries may still complete, but no new submissions start.
  EXPECT_EQ(client.submitted(), at_window_end);
}

TEST(CpuBullyTest, ProgressTracksCpuTime) {
  Simulator sim;
  MachineSpec spec;
  spec.num_cores = 4;
  spec.context_switch = 0;
  SimMachine machine(&sim, spec, "m0");
  CpuBully bully(&machine, 8, "bully");
  EXPECT_EQ(bully.threads(), 8);
  sim.RunUntil(kSecond);
  EXPECT_NEAR(bully.Progress(), 4.0, 0.01);  // 4 cores saturated for 1 s
  bully.Stop();
  sim.RunUntil(2 * kSecond);
  EXPECT_NEAR(bully.Progress(), 4.0, 0.01);  // no progress after stop
}

struct DiskRig {
  Simulator sim;
  MachineSpec machine_spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<StripedVolume> volume;
  std::unique_ptr<IoScheduler> scheduler;
  JobId job;

  DiskRig() {
    machine_spec.num_cores = 4;
    machine_spec.context_switch = 0;
    machine = std::make_unique<SimMachine>(&sim, machine_spec, "m0");
    volume = std::make_unique<StripedVolume>(DiskSpec::Hdd(), 4, "hdd");
    scheduler = std::make_unique<IoScheduler>(&sim, volume.get(), 4);
    job = machine->CreateJob("secondary");
  }
};

TEST(DiskBullyTest, KeepsQueueDepthAndMixesOps) {
  DiskRig rig;
  DiskBully::Options options;
  options.queue_depth = 4;
  DiskBully bully(&rig.sim, rig.machine.get(), rig.scheduler.get(), rig.job, options, Rng(9));
  bully.Start();
  rig.sim.RunUntil(5 * kSecond);
  // Sequential 8 KB ops on 4 HDDs at ~0.55 ms each -> thousands of IOPS.
  EXPECT_GT(bully.completed_ios(), 5000);
  bully.Stop();
  const int64_t after_stop = bully.completed_ios();
  rig.sim.RunUntil(6 * kSecond);
  EXPECT_LE(bully.completed_ios() - after_stop, options.queue_depth);
}

TEST(HdfsClientTest, ApproachesConfiguredRates) {
  DiskRig rig;
  HdfsClient::Options options;
  options.client_bytes_per_sec = 10e6;
  options.replication_bytes_per_sec = 5e6;
  options.cpu_fraction = 0.05;
  HdfsClient hdfs(&rig.sim, rig.machine.get(), rig.scheduler.get(), rig.job, options, Rng(11));
  hdfs.Start();
  rig.sim.RunUntil(5 * kSecond);
  // Self-paced at ~15 MB/s combined.
  EXPECT_NEAR(static_cast<double>(hdfs.bytes_transferred()), 75e6, 15e6);
  // The CPU footprint is near the configured fraction of the machine.
  const double cpu_fraction =
      ToSeconds(rig.machine->metrics().busy_ns[static_cast<int>(TenantClass::kSecondary)]) /
      (5.0 * rig.machine_spec.num_cores);
  EXPECT_NEAR(cpu_fraction, 0.05, 0.02);
  hdfs.Stop();
}

TEST(MlTrainingJobTest, ComputesAndGrowsMemory) {
  DiskRig rig;
  MlTrainingJob::Options options;
  options.worker_threads = 8;
  options.memory_growth_per_sec = 1024 * 1024;
  MlTrainingJob job(&rig.sim, rig.machine.get(), rig.scheduler.get(), rig.job, options);
  job.Start();
  rig.sim.RunUntil(4 * kSecond);
  EXPECT_NEAR(job.Progress(), 16.0, 0.5);  // 4 cores * 4 s
  const int64_t memory = *rig.machine->JobMemory(rig.job);
  EXPECT_NEAR(static_cast<double>(memory), 4e6, 1.5e6);
  job.Stop();
  EXPECT_EQ(*rig.machine->JobLiveThreads(rig.job), 0);
}

}  // namespace
}  // namespace perfiso
