#include "src/workload/load_shape.h"

#include <algorithm>
#include <cmath>

namespace perfiso {

double LoadShapeSpec::RateAt(SimDuration t_rel) const {
  const double t = ToSeconds(t_rel);
  switch (kind) {
    case LoadShapeKind::kConstant:
      return qps;
    case LoadShapeKind::kDiurnal: {
      const double f = diurnal_trough_fraction;
      const double phase = 2 * M_PI * t / diurnal_period_sec;
      return qps * (f + (1 - f) * (1 - std::cos(phase)) / 2);
    }
    case LoadShapeKind::kRamp: {
      if (t >= ramp_duration_sec) {
        return ramp_end_qps;
      }
      return qps + (ramp_end_qps - qps) * t / ramp_duration_sec;
    }
    case LoadShapeKind::kFlashCrowd:
      return (t >= flash_start_sec && t < flash_start_sec + flash_duration_sec)
                 ? flash_spike_qps
                 : qps;
    case LoadShapeKind::kSquareWave: {
      const double in_period = std::fmod(t, square_period_sec);
      return in_period < square_duty * square_period_sec ? square_burst_qps : qps;
    }
    case LoadShapeKind::kPiecewise: {
      double rate = piecewise.front().qps;
      for (const PiecewisePoint& point : piecewise) {
        if (t < point.at_sec) {
          break;
        }
        rate = point.qps;
      }
      return rate;
    }
  }
  return qps;
}

double LoadShapeSpec::PeakRate() const {
  switch (kind) {
    case LoadShapeKind::kConstant:
      return qps;
    case LoadShapeKind::kDiurnal:
      return qps;  // trough_fraction <= 1, so the peak is the nominal qps
    case LoadShapeKind::kRamp:
      return std::max(qps, ramp_end_qps);
    case LoadShapeKind::kFlashCrowd:
      return std::max(qps, flash_spike_qps);
    case LoadShapeKind::kSquareWave:
      return std::max(qps, square_burst_qps);
    case LoadShapeKind::kPiecewise: {
      double peak = 0;
      for (const PiecewisePoint& point : piecewise) {
        peak = std::max(peak, point.qps);
      }
      return peak;
    }
  }
  return qps;
}

Status LoadShapeSpec::Validate() const {
  // Reject inf/NaN up front: one-sided range checks below would let them
  // through (NaN comparisons are all false), and an infinite rate wedges the
  // thinning loop at one arrival per tick instead of failing loudly.
  for (double value : {qps, diurnal_period_sec, diurnal_trough_fraction, ramp_end_qps,
                       ramp_duration_sec, flash_spike_qps, flash_start_sec,
                       flash_duration_sec, square_burst_qps, square_period_sec,
                       square_duty}) {
    if (!std::isfinite(value)) {
      return InvalidArgumentError("load shape parameters must be finite");
    }
  }
  for (const PiecewisePoint& point : piecewise) {
    if (!std::isfinite(point.at_sec) || !std::isfinite(point.qps)) {
      return InvalidArgumentError("piecewise entries must be finite");
    }
  }
  if (qps < 0) {
    return InvalidArgumentError("load qps must be >= 0");
  }
  switch (kind) {
    case LoadShapeKind::kConstant:
      if (qps <= 0) {
        return InvalidArgumentError("constant load qps must be positive");
      }
      break;
    case LoadShapeKind::kDiurnal:
      if (qps <= 0) {
        return InvalidArgumentError("diurnal peak qps must be positive");
      }
      if (diurnal_period_sec <= 0) {
        return InvalidArgumentError("diurnal period must be positive");
      }
      if (diurnal_trough_fraction < 0 || diurnal_trough_fraction > 1) {
        return InvalidArgumentError("diurnal trough_fraction must be in [0, 1]");
      }
      break;
    case LoadShapeKind::kRamp:
      if (ramp_end_qps < 0) {
        return InvalidArgumentError("ramp end qps must be >= 0");
      }
      if (ramp_duration_sec <= 0) {
        return InvalidArgumentError("ramp duration must be positive");
      }
      if (qps <= 0 && ramp_end_qps <= 0) {
        return InvalidArgumentError("ramp must reach a positive rate");
      }
      break;
    case LoadShapeKind::kFlashCrowd:
      if (flash_spike_qps < 0) {
        return InvalidArgumentError("flash spike qps must be >= 0");
      }
      if (flash_start_sec < 0 || flash_duration_sec <= 0) {
        return InvalidArgumentError("flash window must be non-negative start, positive duration");
      }
      if (qps <= 0 && flash_spike_qps <= 0) {
        return InvalidArgumentError("flash crowd must have a positive rate somewhere");
      }
      break;
    case LoadShapeKind::kSquareWave:
      if (square_burst_qps < 0) {
        return InvalidArgumentError("square burst qps must be >= 0");
      }
      if (square_period_sec <= 0) {
        return InvalidArgumentError("square period must be positive");
      }
      if (square_duty <= 0 || square_duty >= 1) {
        return InvalidArgumentError("square duty must be in (0, 1)");
      }
      if (qps <= 0 && square_burst_qps <= 0) {
        return InvalidArgumentError("square wave must have a positive rate somewhere");
      }
      break;
    case LoadShapeKind::kPiecewise: {
      if (piecewise.empty()) {
        return InvalidArgumentError("piecewise table must not be empty");
      }
      double prev = -1;
      bool any_positive = false;
      for (const PiecewisePoint& point : piecewise) {
        if (point.at_sec < 0) {
          return InvalidArgumentError("piecewise times must be >= 0");
        }
        if (point.at_sec <= prev) {
          return InvalidArgumentError("piecewise times must be strictly increasing");
        }
        if (point.qps < 0) {
          return InvalidArgumentError("piecewise qps must be >= 0");
        }
        any_positive |= point.qps > 0;
        prev = point.at_sec;
      }
      if (!any_positive) {
        return InvalidArgumentError("piecewise table must contain a positive rate");
      }
      break;
    }
  }
  return OkStatus();
}

LoadShapeSpec ConstantLoad(double qps) {
  LoadShapeSpec shape;
  shape.kind = LoadShapeKind::kConstant;
  shape.qps = qps;
  return shape;
}

LoadShapeSpec DiurnalLoad(double peak_qps, double period_sec, double trough_fraction) {
  LoadShapeSpec shape;
  shape.kind = LoadShapeKind::kDiurnal;
  shape.qps = peak_qps;
  shape.diurnal_period_sec = period_sec;
  shape.diurnal_trough_fraction = trough_fraction;
  return shape;
}

LoadShapeSpec FlashCrowdLoad(double base_qps, double spike_qps, double start_sec,
                             double duration_sec) {
  LoadShapeSpec shape;
  shape.kind = LoadShapeKind::kFlashCrowd;
  shape.qps = base_qps;
  shape.flash_spike_qps = spike_qps;
  shape.flash_start_sec = start_sec;
  shape.flash_duration_sec = duration_sec;
  return shape;
}

}  // namespace perfiso
