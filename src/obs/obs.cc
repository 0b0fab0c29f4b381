#include "src/obs/obs.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/util/stats.h"

namespace perfiso {

Status ObsSpec::Validate() const {
  if (!enabled) {
    return Status::Ok();
  }
  if (metrics_period <= 0) {
    return InvalidArgumentError("obs.metrics_period_ns must be positive");
  }
  if (sampling == TraceSampling::kSlowestK && slowest_k <= 0) {
    return InvalidArgumentError("obs.slowest_k must be positive");
  }
  if (sampling == TraceSampling::kProbabilistic &&
      !(sample_probability >= 0 && sample_probability <= 1)) {
    return InvalidArgumentError("obs.sample_probability must be in [0, 1]");
  }
  if (trace_max_events < 0) {
    return InvalidArgumentError("obs.trace_max_events must be >= 0");
  }
  return Status::Ok();
}

template <class V>
void ObsSpec::Fields(V& v) {
  v.Flag("obs.enabled", enabled);
  if (!enabled) {
    return;
  }
  v.Field("obs.metrics_period_ns", metrics_period);
  v.Field("obs.sampling", sampling);
  if (sampling == TraceSampling::kSlowestK) {
    v.Field("obs.slowest_k", slowest_k);
  }
  if (sampling == TraceSampling::kProbabilistic) {
    v.Field("obs.sample_probability", sample_probability);
    v.Field("obs.sample_seed", sample_seed);
  }
  v.Field("obs.trace_max_events", trace_max_events);
}
template void ObsSpec::Fields(ConfigReader&);
template void ObsSpec::Fields(ConfigWriter&);

void ObsSpec::AppendToConfigMap(ConfigMap* map) const { WriteFields(*this, map); }

StatusOr<ObsSpec> ObsSpec::FromConfigMap(const ConfigMap& map) {
  auto spec = ReadFields<ObsSpec>(map);
  PERFISO_RETURN_IF_ERROR(spec.status());
  PERFISO_RETURN_IF_ERROR(spec->Validate());
  return spec;
}

Tracer::Options ObsSpec::TracerOptions() const {
  Tracer::Options options;
  options.sampling = sampling;
  options.slowest_k = slowest_k;
  options.sample_probability = sample_probability;
  options.sample_seed = sample_seed;
  options.max_events = trace_max_events;
  return options;
}

std::string FormatP99AttributionTable(const Tracer& tracer) {
  const std::vector<TraceSummary>& summaries = tracer.summaries();
  LatencyRecorder completed;
  for (const TraceSummary& summary : summaries) {
    if (!summary.dropped) {
      completed.Add(summary.latency_ms);
    }
  }
  if (completed.Count() == 0) {
    return "";
  }
  const double p99 = completed.P99();

  TailAttribution total;
  double latency_sum = 0;
  size_t cohort = 0;
  for (const TraceSummary& summary : summaries) {
    if (summary.dropped || summary.latency_ms < p99) {
      continue;
    }
    total.Accumulate(summary.attribution);
    latency_sum += summary.latency_ms;
    ++cohort;
  }
  if (cohort == 0) {
    return "";
  }

  const double denom = std::max(latency_sum, 1e-12);
  char line[128];
  std::ostringstream out;
  std::snprintf(line, sizeof(line),
                "P99 cohort (%zu/%zu queries, >= %.2f ms): mean latency %.2f ms\n",
                cohort, completed.Count(), p99,
                latency_sum / static_cast<double>(cohort));
  out << line;
  const auto row = [&](const char* label, double ms) {
    std::snprintf(line, sizeof(line), "  %-14s %9.2f ms  %5.1f%%\n", label,
                  ms / static_cast<double>(cohort), 100.0 * ms / denom);
    out << line;
  };
  row("cpu_wait", total.cpu_wait_ms);
  row("disk_queue", total.disk_queue_ms);
  row("net_transit", total.net_transit_ms);
  row("serialization", total.serialization_ms);
  row("service", total.service_ms);
  row("other", total.other_ms);
  return out.str();
}

}  // namespace perfiso
