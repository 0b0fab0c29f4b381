// Per-run observability bundle: the obs.* configuration surface, and the
// context object that owns one run's MetricsRegistry, Tracer, and
// TimeseriesSampler.
//
// Each simulated rig (a single-box node or a cluster) owns at most one
// ObsContext; layers receive nullable raw pointers to its registry/tracer, so
// a disabled run pays exactly one null check per instrumentation site and the
// event engine itself is untouched. See DESIGN.md §7.
#ifndef PERFISO_SRC_OBS_OBS_H_
#define PERFISO_SRC_OBS_OBS_H_

#include <memory>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/config.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace perfiso {

inline const auto& EnumNames(TraceSampling) {
  static constexpr EnumName<TraceSampling> kNames[] = {
      {TraceSampling::kAll, "all"},
      {TraceSampling::kSlowestK, "slowest_k"},
      {TraceSampling::kProbabilistic, "probabilistic"},
  };
  return kNames;
}

// The obs.* knobs of a scenario. Serialized alongside workload./perfiso.
// keys; nothing is emitted when disabled, so existing configs round-trip
// unchanged.
struct ObsSpec {
  bool enabled = false;
  SimDuration metrics_period = 100 * kMillisecond;
  TraceSampling sampling = TraceSampling::kAll;
  int slowest_k = 64;
  double sample_probability = 0.01;
  uint64_t sample_seed = 1234;
  int64_t trace_max_events = 1'000'000;

  Status Validate() const;
  // The field table (src/util/config.h): only when enabled, and only the
  // knobs the active sampling mode uses; the parser rejects the rest.
  template <class V>
  void Fields(V& v);
  // Emits obs.* keys into `map`.
  void AppendToConfigMap(ConfigMap* map) const;
  // Parses and validates obs.* keys; any other key is an error.
  static StatusOr<ObsSpec> FromConfigMap(const ConfigMap& map);

  Tracer::Options TracerOptions() const;
};

// Owns the observability state of one simulation run. Construct disabled
// (null context pointer) or enabled next to the run's Simulator; call
// StartSampling once the measurement window is known.
struct ObsContext {
  explicit ObsContext(const ObsSpec& s) : spec(s), tracer(s.TracerOptions()) {}

  void StartSampling(Simulator* sim, SimTime start) {
    sampler = std::make_unique<TimeseriesSampler>(sim, &registry, start,
                                                  spec.metrics_period);
  }

  ObsSpec spec;
  MetricsRegistry registry;
  Tracer tracer;
  std::unique_ptr<TimeseriesSampler> sampler;
};

// Formats the paper-style tail-attribution table for the P99 cohort (all
// traced queries whose latency is >= the P99 of completed queries), e.g.:
//   P99 cohort (24/2386 queries, >= 41.2 ms): mean latency 55.1 ms
//     cpu_wait       38.1 ms  69.2%
//     ...
// Returns "" when no queries were traced.
std::string FormatP99AttributionTable(const Tracer& tracer);

}  // namespace perfiso

#endif  // PERFISO_SRC_OBS_OBS_H_
