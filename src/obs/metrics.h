// Sim-time metrics: a registry of named counters/gauges/histograms plus a
// periodic sampler that turns them into in-memory timeseries.
//
// Everything here is passive with respect to the simulation: metric updates
// are plain arithmetic on pre-registered slots, the sampler reads (never
// mutates) metric state on a PeriodicTask cadence, and nothing draws from a
// simulation RNG stream. That is what lets benches run with metrics enabled
// and still produce bit-identical LatencyRecorder digests (the determinism
// contract, DESIGN.md §7).
//
// Metric names are lowercase dot-separated literals ("disk.reads.completed");
// perfiso_lint rule OBS-001 rejects runtime-concatenated names at call sites
// so the hot paths never build strings.
#ifndef PERFISO_SRC_OBS_METRICS_H_
#define PERFISO_SRC_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"

namespace perfiso {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// A sample distribution; the sampler exports its summary stats per tick.
class HistogramMetric {
 public:
  void Observe(double sample) { recorder_.Add(sample); }
  const LatencyRecorder& recorder() const { return recorder_; }

 private:
  LatencyRecorder recorder_;
};

// Owns all metrics of one simulation run. Registration returns stable
// pointers (storage is never reallocated); layers keep the raw pointer and
// update through it with a single null check when observability is off.
// Registering an already-registered name returns the existing metric, so
// independent layers can share a counter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  HistogramMetric* AddHistogram(const std::string& name);
  // A probe is evaluated once per sampler tick; use it to expose state the
  // owner already tracks (queue depths, inflight counts) without mirroring
  // writes into a gauge.
  void AddProbe(const std::string& name, std::function<double()> probe);

  // Current value of every exported column, in registration order.
  // Histograms expand to <name>.count/.mean/.p50/.p95/.p99.
  std::vector<std::string> ColumnNames() const;
  std::vector<double> ColumnValues() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kProbe };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    std::function<double()> probe;
  };

  Entry* Find(const std::string& name);

  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

// Snapshots a registry's columns every `period` of sim time into in-memory
// series. Rows are row-major so late metric registration only pads earlier
// rows (exported as zeros). The sampler is the only periodic event
// observability adds to a run; it is a pure observer, so its only effect on
// the event engine is sequence-number allocation, which cannot reorder
// same-time events scheduled by the simulation proper.
class TimeseriesSampler {
 public:
  // Starts ticking at `start` and then every `period`.
  TimeseriesSampler(Simulator* sim, MetricsRegistry* registry, SimTime start,
                    SimDuration period);

  // Records one row immediately (used for the final end-of-run sample).
  void SampleNow(SimTime now);

  size_t NumRows() const { return times_.size(); }
  SimDuration period() const { return period_; }

  // {"period_ns":..., "times_ns":[...], "series":{"name":[...],...}}
  std::string ToJson() const;

 private:
  MetricsRegistry* registry_;
  SimDuration period_;
  std::vector<SimTime> times_;
  std::vector<std::vector<double>> rows_;
  std::unique_ptr<PeriodicTask> task_;  // declared last: cancels before rows die
};

}  // namespace perfiso

#endif  // PERFISO_SRC_OBS_METRICS_H_
