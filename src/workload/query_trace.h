// Synthetic query-trace generation and the open-loop trace-replay client.
//
// The paper replays a trace of 500k real Bing queries through an open-loop
// client whose inter-arrival times follow a Poisson process (§5.3). Real
// traces are proprietary, so we generate synthetic ones whose per-query
// complexity distributions are the calibration knobs of the IndexServe model.
//
// OpenLoopClient replays a trace: arrivals follow a (possibly
// non-homogeneous) Poisson process described by a LoadShapeSpec, independent
// of completions. This is the paper's load model and the one every figure
// bench uses.
#ifndef PERFISO_SRC_WORKLOAD_QUERY_TRACE_H_
#define PERFISO_SRC_WORKLOAD_QUERY_TRACE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/workload/load_shape.h"

namespace perfiso {

// Complexity of one query, fixed at trace-generation time so that replays at
// different arrival rates process identical work (like replaying a trace).
struct QueryWork {
  uint64_t id = 0;
  int fanout = 1;           // parallel chunk lookups
  double size_factor = 1;   // multiplies all CPU costs of this query
  uint64_t seed = 0;        // per-query stream for chunk-level draws
  // Trace context minted by the submitting layer (the TLA in cluster runs);
  // 0 lets the index server mint its own.
  uint64_t trace_ctx = 0;
};

// Distribution parameters for synthetic traces.
struct TraceSpec {
  int fanout_min = 4;
  int fanout_max = 12;
  // Per-query size factor ~ LogNormal(mu, sigma), normalized to mean 1.
  double size_sigma = 0.45;
};

// Generates `count` queries with complexities drawn from `spec`.
std::vector<QueryWork> GenerateTrace(const TraceSpec& spec, size_t count, Rng* rng);

// Replays a trace in an open loop: queries are submitted at the arrivals of a
// non-homogeneous Poisson process with intensity `shape` (§5.3), regardless
// of completions. Arrivals are realized by thinning: candidate gaps are drawn
// exponentially at the shape's peak rate and accepted with probability
// rate(t)/peak, so any target intensity is matched without inversion. The
// trace wraps around if the duration needs more queries than it holds.
//
// Every inter-arrival gap — including the one before the *first* query — is
// drawn from the exponential; gaps are floored at 1 tick (1 ns) so simulated
// time always advances. The floor biases the realized rate only when the mean
// gap approaches a nanosecond (~1e9 QPS), far beyond anything modeled here.
class OpenLoopClient {
 public:
  using SubmitFn = std::function<void(const QueryWork&, SimTime)>;

  OpenLoopClient(Simulator* sim, std::vector<QueryWork> trace, LoadShapeSpec shape,
                 Rng rng, SubmitFn submit);
  // Constant-rate convenience (the original interface).
  OpenLoopClient(Simulator* sim, std::vector<QueryWork> trace, double queries_per_sec,
                 Rng rng, SubmitFn submit);

  // Starts submitting at `start`, stopping after `duration`. Load-shape times
  // are relative to `start`.
  void Run(SimTime start, SimDuration duration);

  // Marks each submission as a "client.arrival" instant on `track`.
  void SetTracer(Tracer* tracer, int32_t track);

  uint64_t submitted() const { return submitted_; }

 private:
  // Next accepted arrival strictly after `from`, or end_time_ if none.
  SimTime DrawNextArrival(SimTime from);
  void ScheduleArrival(SimTime at);

  Simulator* sim_;
  std::vector<QueryWork> trace_;
  LoadShapeSpec shape_;
  double peak_rate_ = 0;
  Rng rng_;
  SubmitFn submit_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  SimTime start_time_ = 0;
  SimTime end_time_ = 0;
  uint64_t submitted_ = 0;
  size_t cursor_ = 0;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_WORKLOAD_QUERY_TRACE_H_
