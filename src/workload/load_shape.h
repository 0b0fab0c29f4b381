// Load shapes: time-varying arrival intensities for the workload clients.
//
// Production load is not flat — Bing index clusters idle at ~21% average CPU
// because they are provisioned for diurnal peaks and sudden query bursts, and
// PerfIso's blind-isolation buffer is sized to absorb exactly those bursts
// (§1, §3.1, Fig. 2). A LoadShapeSpec describes the target intensity
// lambda(t) in queries/sec; the open-loop client realizes it as a
// non-homogeneous Poisson process by thinning (Lewis & Shedler): candidate
// arrivals are drawn at the peak rate and accepted with probability
// lambda(t) / peak.
#ifndef PERFISO_SRC_WORKLOAD_LOAD_SHAPE_H_
#define PERFISO_SRC_WORKLOAD_LOAD_SHAPE_H_

#include <string>
#include <vector>

#include "src/util/config.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace perfiso {

enum class LoadShapeKind {
  kConstant,    // flat lambda = qps (the original OpenLoopClient behavior)
  kDiurnal,     // raised-cosine day: trough at t=0, peak at period/2
  kRamp,        // linear qps -> ramp_end_qps over ramp_duration, then flat
  kFlashCrowd,  // base qps with a sudden spike window (Fig. 2's bursts)
  kSquareWave,  // burst train: alternating base / burst at a duty cycle
  kPiecewise,   // step function from an explicit (time, qps) table
};

inline const auto& EnumNames(LoadShapeKind) {
  static constexpr EnumName<LoadShapeKind> kNames[] = {
      {LoadShapeKind::kConstant, "constant"},
      {LoadShapeKind::kDiurnal, "diurnal"},
      {LoadShapeKind::kRamp, "ramp"},
      {LoadShapeKind::kFlashCrowd, "flash_crowd"},
      {LoadShapeKind::kSquareWave, "square_wave"},
      {LoadShapeKind::kPiecewise, "piecewise"},
  };
  return kNames;
}

// One step of a piecewise shape: lambda = qps from `at_sec` (relative to the
// client's start) until the next point's `at_sec`.
struct PiecewisePoint {
  double at_sec = 0;
  double qps = 0;
};

struct LoadShapeSpec {
  LoadShapeKind kind = LoadShapeKind::kConstant;

  // Base rate: the constant level, the diurnal/ramp/flash/square *peak or
  // base* depending on kind (documented per field group below).
  double qps = 2000;

  // kDiurnal: lambda(t) = qps * (f + (1-f) * (1 - cos(2*pi*t/period)) / 2)
  // where f = trough_fraction, i.e. `qps` is the daily peak and the trough is
  // f * qps. Time-average is qps * (1 + f) / 2. The defaults calibrate to
  // Fig. 2: with peak at 4,000 QPS (the paper's high rate, ~40% primary CPU
  // on our machine model) and f = 0.1, the daily average lands at 2,200 QPS
  // — ~21% average CPU utilization, the paper's headline idleness number.
  double diurnal_period_sec = 24;
  double diurnal_trough_fraction = 0.1;

  // kRamp: lambda climbs linearly from `qps` to `ramp_end_qps` over
  // `ramp_duration_sec`, then stays at `ramp_end_qps`.
  double ramp_end_qps = 4000;
  double ramp_duration_sec = 10;

  // kFlashCrowd: lambda = `qps` except in [flash_start_sec,
  // flash_start_sec + flash_duration_sec), where it jumps to flash_spike_qps.
  double flash_spike_qps = 8000;
  double flash_start_sec = 2;
  double flash_duration_sec = 1;

  // kSquareWave: each period spends `square_duty` of its length at
  // `square_burst_qps` (starting at the period boundary) and the rest at
  // `qps`.
  double square_burst_qps = 4000;
  double square_period_sec = 2;
  double square_duty = 0.25;

  // kPiecewise: step table, times relative to client start, must be sorted
  // ascending and non-empty; lambda before the first point is the first
  // point's qps.
  std::vector<PiecewisePoint> piecewise;

  // Target intensity at `t_rel` (relative to the client's start), in
  // queries/sec. Requires Validate().ok().
  double RateAt(SimDuration t_rel) const;

  // Upper bound of RateAt over all t (the thinning majorant).
  double PeakRate() const;

  // Rejects negative rates, empty piecewise tables, unsorted tables,
  // non-positive periods/durations, duty outside (0, 1), etc.
  Status Validate() const;
};

// Convenience constructors for the common shapes.
LoadShapeSpec ConstantLoad(double qps);
LoadShapeSpec DiurnalLoad(double peak_qps, double period_sec,
                          double trough_fraction = 0.1);
LoadShapeSpec FlashCrowdLoad(double base_qps, double spike_qps, double start_sec,
                             double duration_sec);

}  // namespace perfiso

#endif  // PERFISO_SRC_WORKLOAD_LOAD_SHAPE_H_
