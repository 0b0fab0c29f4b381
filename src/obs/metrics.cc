#include "src/obs/metrics.h"

#include <cassert>
#include <sstream>
#include <utility>

#include "src/util/config.h"

namespace perfiso {

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (auto& entry : entries_) {
    if (entry->name == name) {
      return entry.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  if (Entry* existing = Find(name)) {
    assert(existing->kind == Kind::kCounter);
    return existing->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = Kind::kCounter;
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Gauge* MetricsRegistry::AddGauge(const std::string& name) {
  if (Entry* existing = Find(name)) {
    assert(existing->kind == Kind::kGauge);
    return existing->gauge.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = Kind::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge* out = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return out;
}

HistogramMetric* MetricsRegistry::AddHistogram(const std::string& name) {
  if (Entry* existing = Find(name)) {
    assert(existing->kind == Kind::kHistogram);
    return existing->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = Kind::kHistogram;
  entry->histogram = std::make_unique<HistogramMetric>();
  HistogramMetric* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

void MetricsRegistry::AddProbe(const std::string& name, std::function<double()> probe) {
  if (Find(name) != nullptr) {
    return;  // first registration wins
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = Kind::kProbe;
  entry->probe = std::move(probe);
  entries_.push_back(std::move(entry));
}

std::vector<std::string> MetricsRegistry::ColumnNames() const {
  std::vector<std::string> names;
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
      case Kind::kGauge:
      case Kind::kProbe:
        names.push_back(entry->name);
        break;
      case Kind::kHistogram:
        names.push_back(entry->name + ".count");
        names.push_back(entry->name + ".mean");
        names.push_back(entry->name + ".p50");
        names.push_back(entry->name + ".p95");
        names.push_back(entry->name + ".p99");
        break;
    }
  }
  return names;
}

std::vector<double> MetricsRegistry::ColumnValues() const {
  std::vector<double> values;
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        values.push_back(static_cast<double>(entry->counter->value()));
        break;
      case Kind::kGauge:
        values.push_back(entry->gauge->value());
        break;
      case Kind::kProbe:
        values.push_back(entry->probe());
        break;
      case Kind::kHistogram: {
        const LatencyRecorder& r = entry->histogram->recorder();
        values.push_back(static_cast<double>(r.Count()));
        values.push_back(r.Mean());
        values.push_back(r.P50());
        values.push_back(r.P95());
        values.push_back(r.P99());
        break;
      }
    }
  }
  return values;
}

TimeseriesSampler::TimeseriesSampler(Simulator* sim, MetricsRegistry* registry,
                                     SimTime start, SimDuration period)
    : registry_(registry), period_(period) {
  assert(period > 0);
  task_ = std::make_unique<PeriodicTask>(sim, start, period,
                                         [this](SimTime now) { SampleNow(now); });
}

void TimeseriesSampler::SampleNow(SimTime now) {
  // Idempotent at one instant: the end-of-run flush would otherwise duplicate
  // the last periodic tick when the run ends exactly on the period boundary,
  // and exported times_ns must stay strictly increasing.
  if (!times_.empty() && times_.back() == now) {
    rows_.back() = registry_->ColumnValues();
    return;
  }
  times_.push_back(now);
  rows_.push_back(registry_->ColumnValues());
}

std::string TimeseriesSampler::ToJson() const {
  const std::vector<std::string> columns = registry_->ColumnNames();
  std::ostringstream out;
  out << "{\"period_ns\":" << period_ << ",\"times_ns\":[";
  for (size_t i = 0; i < times_.size(); ++i) {
    out << (i ? "," : "") << times_[i];
  }
  out << "],\"series\":{";
  for (size_t c = 0; c < columns.size(); ++c) {
    out << (c ? "," : "") << "\"" << columns[c] << "\":[";
    for (size_t r = 0; r < rows_.size(); ++r) {
      // Rows recorded before a metric was registered are short; export 0.
      const double v = c < rows_[r].size() ? rows_[r][c] : 0;
      out << (r ? "," : "") << FormatDouble(v);
    }
    out << "]";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfiso
