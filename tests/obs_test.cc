// Observability subsystem: metrics registry + sampler, tracer attribution
// and sampling modes, Chrome-trace export, and the obs.* config surface.
#include "src/obs/obs.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/sim/simulator.h"
#include "src/util/sim_time.h"
#include "src/workload/scenario.h"

namespace perfiso {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, ColumnsFollowRegistrationOrder) {
  MetricsRegistry registry;
  Counter* submits = registry.AddCounter("client.submitted");
  Gauge* depth = registry.AddGauge("disk.queue_depth");
  registry.AddProbe("indexserve.inflight", [] { return 7.0; });
  HistogramMetric* lat = registry.AddHistogram("indexserve.latency_ms");

  submits->Increment();
  submits->Increment(2);
  depth->Set(3.5);
  lat->Observe(10);
  lat->Observe(30);

  const std::vector<std::string> names = registry.ColumnNames();
  const std::vector<double> values = registry.ColumnValues();
  ASSERT_EQ(names.size(), values.size());
  // Histograms expand to count/mean/p50/p95/p99.
  const std::vector<std::string> want = {
      "client.submitted",          "disk.queue_depth",
      "indexserve.inflight",       "indexserve.latency_ms.count",
      "indexserve.latency_ms.mean", "indexserve.latency_ms.p50",
      "indexserve.latency_ms.p95", "indexserve.latency_ms.p99",
  };
  EXPECT_EQ(names, want);
  EXPECT_EQ(values[0], 3);    // counter
  EXPECT_EQ(values[1], 3.5);  // gauge
  EXPECT_EQ(values[2], 7.0);  // probe
  EXPECT_EQ(values[3], 2);    // histogram count
  EXPECT_EQ(values[4], 20);   // histogram mean
}

TEST(MetricsRegistry, ReregisteringANameReturnsTheExistingMetric) {
  MetricsRegistry registry;
  Counter* a = registry.AddCounter("disk.reads.completed");
  Counter* b = registry.AddCounter("disk.reads.completed");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(registry.ColumnNames().size(), 1u);
}

TEST(TimeseriesSampler, SamplesEveryPeriodOfSimTime) {
  Simulator sim;
  MetricsRegistry registry;
  Counter* events = registry.AddCounter("sim.events");
  TimeseriesSampler sampler(&sim, &registry, FromMillis(100), FromMillis(50));

  sim.Schedule(FromMillis(120), [events] { events->Increment(); });
  sim.RunUntil(FromMillis(260));

  // Ticks at 100, 150, 200, 250 ms.
  EXPECT_EQ(sampler.NumRows(), 4u);
  sampler.SampleNow(sim.Now());
  EXPECT_EQ(sampler.NumRows(), 5u);
  // Same-instant flushes refresh the row instead of duplicating the time:
  // exported times_ns stay strictly increasing.
  sampler.SampleNow(sim.Now());
  EXPECT_EQ(sampler.NumRows(), 5u);

  const std::string json = sampler.ToJson();
  EXPECT_NE(json.find("\"period_ns\":50000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sim.events\""), std::string::npos) << json;
}

// --- Tracer ----------------------------------------------------------------

TEST(TailAttribution, PrioritySweepCoversLifetimeExactly) {
  // Lifetime [0, 10 ms]. cpu-wait over [0, 4), service over [2, 6): the
  // overlap [2, 6) goes to service (higher priority); [6, 10) is uncovered.
  std::vector<SpanRecord> spans;
  spans.push_back(SpanRecord{0, SpanCategory::kCpuWait, 0, 0, FromMillis(4)});
  spans.push_back(SpanRecord{1, SpanCategory::kService, 0, FromMillis(2), FromMillis(6)});
  const TailAttribution attribution =
      Tracer::ComputeAttribution(0, FromMillis(10), spans);
  EXPECT_NEAR(attribution.cpu_wait_ms, 2.0, 1e-9);
  EXPECT_NEAR(attribution.service_ms, 4.0, 1e-9);
  EXPECT_NEAR(attribution.other_ms, 4.0, 1e-9);
  EXPECT_NEAR(attribution.Total(), 10.0, 1e-9);
}

TEST(Tracer, RecordsSummariesAndRetainsSpansUnderKAll) {
  Tracer tracer(Tracer::Options{});
  const int pid = tracer.RegisterProcess("m0");
  const int track = tracer.RegisterTrack(pid, "core");

  const uint64_t ctx = tracer.BeginTrace("isq", FromMillis(1));
  tracer.Span(ctx, "cpu.run", SpanCategory::kService, track, FromMillis(1), FromMillis(4));
  tracer.EndTrace(ctx, FromMillis(5), /*dropped=*/false);

  ASSERT_EQ(tracer.summaries().size(), 1u);
  EXPECT_NEAR(tracer.summaries()[0].latency_ms, 4.0, 1e-9);
  EXPECT_FALSE(tracer.summaries()[0].dropped);
  ASSERT_EQ(tracer.Retained().size(), 1u);
  EXPECT_EQ(tracer.Retained()[0]->spans.size(), 1u);
  EXPECT_EQ(tracer.stats().begun, 1u);
  EXPECT_EQ(tracer.stats().ended, 1u);
  EXPECT_EQ(tracer.stats().retained, 1u);
}

TEST(Tracer, SlowestKKeepsTheKHighestLatencies) {
  Tracer::Options options;
  options.sampling = TraceSampling::kSlowestK;
  options.slowest_k = 2;
  Tracer tracer(options);
  for (const int latency : {1, 5, 3}) {
    const uint64_t ctx = tracer.BeginTrace("isq", 0);
    tracer.EndTrace(ctx, FromMillis(latency), false);
  }
  const auto retained = tracer.Retained();
  ASSERT_EQ(retained.size(), 2u);  // ascending latency order
  EXPECT_NEAR(retained[0]->latency_ms, 3.0, 1e-9);
  EXPECT_NEAR(retained[1]->latency_ms, 5.0, 1e-9);
  EXPECT_EQ(tracer.stats().dropped_traces, 1u);
  // Attribution is still computed for evicted traces: all three summarized.
  EXPECT_EQ(tracer.summaries().size(), 3u);
}

TEST(Tracer, ProbabilisticSamplingIsDeterministicInTheSeed) {
  const auto run = [](uint64_t seed) {
    Tracer::Options options;
    options.sampling = TraceSampling::kProbabilistic;
    options.sample_probability = 0.5;
    options.sample_seed = seed;
    Tracer tracer(options);
    std::vector<double> retained_latencies;
    for (int i = 0; i < 64; ++i) {
      const uint64_t ctx = tracer.BeginTrace("isq", 0);
      tracer.EndTrace(ctx, FromMillis(i + 1), false);
    }
    for (const RetainedTrace* t : tracer.Retained()) {
      retained_latencies.push_back(t->latency_ms);
    }
    return retained_latencies;
  };
  const auto a = run(1234);
  EXPECT_EQ(a, run(1234));
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 64u);
}

TEST(Tracer, OrphanSpansAreCountedNotCrashed) {
  Tracer tracer(Tracer::Options{});
  tracer.Span(/*ctx=*/999, "cpu.run", SpanCategory::kService, 0, 0, FromMillis(1));
  tracer.EndTrace(/*ctx=*/999, FromMillis(1), false);
  // Both the span and the end on an unknown context count as orphans.
  EXPECT_EQ(tracer.stats().orphan_spans, 2u);
  EXPECT_TRUE(tracer.summaries().empty());
}

TEST(Tracer, MaxEventsCapsRetainedSpans) {
  Tracer::Options options;
  options.max_events = 2;
  Tracer tracer(options);
  for (int i = 0; i < 3; ++i) {
    const uint64_t ctx = tracer.BeginTrace("isq", 0);
    tracer.Span(ctx, "cpu.run", SpanCategory::kService, 0, 0, FromMillis(1));
    tracer.Span(ctx, "cpu.wait", SpanCategory::kCpuWait, 0, 0, FromMillis(1));
    tracer.EndTrace(ctx, FromMillis(1), false);
  }
  EXPECT_EQ(tracer.Retained().size(), 1u);       // first trace fills the cap
  EXPECT_EQ(tracer.stats().dropped_traces, 2u);
  EXPECT_EQ(tracer.summaries().size(), 3u);      // summaries are never capped
}

// --- Chrome-trace export ---------------------------------------------------

TEST(ChromeTraceExport, EmitsWellFormedEventShapes) {
  Tracer tracer(Tracer::Options{});
  const int pid = tracer.RegisterProcess("m0");
  const int track = tracer.RegisterTrack(pid, "core");
  const uint64_t ctx = tracer.BeginTrace("isq", FromMillis(1));
  tracer.Span(ctx, "cpu.run", SpanCategory::kService, track, FromMillis(1), FromMillis(3));
  tracer.Instant("hedge.issued", track, FromMillis(2));
  tracer.EndTrace(ctx, FromMillis(4), false);

  const std::string json = ExportChromeTrace(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process metadata
  EXPECT_NE(json.find("\"name\":\"m0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // async begin
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);  // async end
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("cpu.run"), std::string::npos);
  EXPECT_NE(json.find("hedge.issued"), std::string::npos);
  // The query lifetime carries the attribution breakdown in its args.
  EXPECT_NE(json.find("service_ms"), std::string::npos);
}

// --- P99 attribution table -------------------------------------------------

TEST(AttributionTable, EmptyTracerProducesEmptyTable) {
  Tracer tracer(Tracer::Options{});
  EXPECT_EQ(FormatP99AttributionTable(tracer), "");
}

TEST(AttributionTable, CohortCoversTheSlowestQueries) {
  Tracer tracer(Tracer::Options{});
  for (int i = 1; i <= 100; ++i) {
    const uint64_t ctx = tracer.BeginTrace("isq", 0);
    tracer.Span(ctx, "cpu.run", SpanCategory::kService, 0, 0, FromMillis(i));
    tracer.EndTrace(ctx, FromMillis(i), false);
  }
  const std::string table = FormatP99AttributionTable(tracer);
  EXPECT_EQ(table.rfind("P99 cohort (", 0), 0u) << table;
  EXPECT_NE(table.find("service"), std::string::npos);
  EXPECT_NE(table.find("cpu_wait"), std::string::npos);
  // Everything is service time here, so service carries ~100%.
  EXPECT_NE(table.find("100.0%"), std::string::npos) << table;
}

// --- obs.* config surface --------------------------------------------------

TEST(ObsSpec, DisabledSerializesToNothing) {
  ObsSpec spec;
  ConfigMap map;
  spec.AppendToConfigMap(&map);
  EXPECT_TRUE(map.entries().empty());
}

TEST(ObsSpec, RoundTripsThroughConfigMap) {
  ObsSpec spec;
  spec.enabled = true;
  spec.metrics_period = FromMillis(20);
  spec.sampling = TraceSampling::kSlowestK;
  spec.slowest_k = 32;
  spec.trace_max_events = 5000;

  ConfigMap map;
  spec.AppendToConfigMap(&map);
  const auto parsed = ObsSpec::FromConfigMap(map);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->enabled);
  EXPECT_EQ(parsed->metrics_period, FromMillis(20));
  EXPECT_EQ(parsed->sampling, TraceSampling::kSlowestK);
  EXPECT_EQ(parsed->slowest_k, 32);
  EXPECT_EQ(parsed->trace_max_events, 5000);
}

TEST(ObsSpec, ValidateRejectsBadKnobs) {
  ObsSpec spec;
  spec.enabled = true;
  spec.metrics_period = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = ObsSpec{};
  spec.enabled = true;
  spec.sampling = TraceSampling::kProbabilistic;
  spec.sample_probability = 1.5;
  EXPECT_FALSE(spec.Validate().ok());

  // Disabled specs are never invalid: the knobs are inert.
  spec.enabled = false;
  EXPECT_TRUE(spec.Validate().ok());

  EXPECT_FALSE(ParseEnum<TraceSampling>("sometimes").ok());
}

TEST(ObsSpec, SamplingNamesRoundTrip) {
  for (TraceSampling sampling :
       {TraceSampling::kAll, TraceSampling::kSlowestK, TraceSampling::kProbabilistic}) {
    auto parsed = ParseEnum<TraceSampling>(NameOf(sampling));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, sampling);
  }
}

TEST(ObsSpec, ValidateRejectsNanSampleProbability) {
  ObsSpec spec;
  spec.enabled = true;
  spec.sampling = TraceSampling::kProbabilistic;
  spec.sample_probability = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(ObsSpec, RejectsNanSampleProbability) {
  ConfigMap map;
  map.Set("obs.enabled", "true");
  map.Set("obs.sampling", "probabilistic");
  map.Set("obs.sample_probability", "nan");
  EXPECT_FALSE(ObsSpec::FromConfigMap(map).ok());
}

TEST(ObsSpec, RidesInsideScenarioSpecRoundTrip) {
  ScenarioSpec scenario;
  scenario.name = "obs-roundtrip";
  scenario.obs.enabled = true;
  scenario.obs.sampling = TraceSampling::kProbabilistic;
  scenario.obs.sample_probability = 0.25;
  scenario.obs.sample_seed = 99;

  const ConfigMap map = scenario.ToConfigMap();
  const auto parsed = ScenarioSpec::FromConfigMap(map);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->obs.enabled);
  EXPECT_EQ(parsed->obs.sampling, TraceSampling::kProbabilistic);
  EXPECT_EQ(parsed->obs.sample_probability, 0.25);
  EXPECT_EQ(parsed->obs.sample_seed, 99u);
}

TEST(ObsContext, StartSamplingAttachesASampler) {
  Simulator sim;
  ObsSpec spec;
  spec.enabled = true;
  spec.metrics_period = FromMillis(10);
  ObsContext ctx(spec);
  ctx.registry.AddProbe("sim.now_ms", [&sim] { return ToMillis(sim.Now()); });
  ctx.StartSampling(&sim, FromMillis(10));
  sim.RunUntil(FromMillis(45));
  ASSERT_NE(ctx.sampler, nullptr);
  EXPECT_EQ(ctx.sampler->NumRows(), 4u);  // 10, 20, 30, 40 ms
}

}  // namespace
}  // namespace perfiso
