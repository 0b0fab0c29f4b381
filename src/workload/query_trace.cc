#include "src/workload/query_trace.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace perfiso {

std::vector<QueryWork> GenerateTrace(const TraceSpec& spec, size_t count, Rng* rng) {
  assert(rng != nullptr);
  assert(spec.fanout_min >= 1 && spec.fanout_max >= spec.fanout_min);
  std::vector<QueryWork> trace;
  trace.reserve(count);
  // exp(mu + sigma^2/2) = 1  =>  mu = -sigma^2/2 normalizes the mean to 1.
  const double mu = -spec.size_sigma * spec.size_sigma / 2;
  for (size_t i = 0; i < count; ++i) {
    QueryWork query;
    query.id = i;
    query.fanout = static_cast<int>(rng->UniformInt(spec.fanout_min, spec.fanout_max));
    query.size_factor = rng->LogNormal(mu, spec.size_sigma);
    query.seed = rng->Next();
    trace.push_back(query);
  }
  return trace;
}

OpenLoopClient::OpenLoopClient(Simulator* sim, std::vector<QueryWork> trace,
                               LoadShapeSpec shape, Rng rng, SubmitFn submit)
    : sim_(sim), trace_(std::move(trace)), shape_(shape), rng_(rng),
      submit_(std::move(submit)) {
  assert(!trace_.empty());
  assert(shape_.Validate().ok());
  peak_rate_ = shape_.PeakRate();
  assert(peak_rate_ > 0);
}

OpenLoopClient::OpenLoopClient(Simulator* sim, std::vector<QueryWork> trace,
                               double queries_per_sec, Rng rng, SubmitFn submit)
    : OpenLoopClient(sim, std::move(trace), ConstantLoad(queries_per_sec), rng,
                     std::move(submit)) {}

void OpenLoopClient::Run(SimTime start, SimDuration duration) {
  start_time_ = start;
  end_time_ = start + duration;
  // The first arrival gets a drawn gap like every other one; submitting
  // query #0 at exactly t=start would make the process non-Poisson at the
  // window edge (and bias every short-run rate estimate upward).
  ScheduleArrival(DrawNextArrival(start));
}

SimTime OpenLoopClient::DrawNextArrival(SimTime from) {
  // Thinning (Lewis & Shedler): candidate arrivals at the constant majorant
  // peak_rate_, each accepted with probability rate(t)/peak. Constant shapes
  // accept unconditionally, so they cost exactly one draw per arrival.
  while (from < end_time_) {
    const double gap_ns = rng_.Exponential(static_cast<double>(kSecond) / peak_rate_);
    const SimDuration remaining = end_time_ - from;
    // A gap past the rest of the window ends the client before llround, which
    // a tiny rate would hand a gap beyond int64. The test never cuts a gap
    // that fits: the next double above `remaining` exceeds it, and 2^63
    // exceeds every int64.
    if (gap_ns > static_cast<double>(remaining) || gap_ns >= 0x1p63) {
      break;
    }
    // Floor at 1 tick so time always advances (see the class comment for the
    // bias bound).
    const SimDuration gap = std::max<SimDuration>(1, std::llround(gap_ns));
    if (gap >= remaining) {
      break;
    }
    from += gap;
    const double rate = shape_.RateAt(from - start_time_);
    if (rate >= peak_rate_ || rng_.NextDouble() * peak_rate_ < rate) {
      return from;
    }
  }
  return end_time_;
}

void OpenLoopClient::ScheduleArrival(SimTime at) {
  if (at >= end_time_) {
    return;
  }
  sim_->Schedule(at, [this, at] {
    if (tracer_ != nullptr) {
      tracer_->Instant("client.arrival", track_, at);
    }
    submit_(trace_[cursor_], at);
    ++submitted_;
    cursor_ = (cursor_ + 1) % trace_.size();
    ScheduleArrival(DrawNextArrival(at));
  });
}

void OpenLoopClient::SetTracer(Tracer* tracer, int32_t track) {
  tracer_ = tracer;
  track_ = track;
}

}  // namespace perfiso
