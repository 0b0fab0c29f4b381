// Latency percentiles in which a request that failed or was dropped counts as
// beyond every latency limit.
#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (the rule LatencyRecorder::Percentile uses) over
// `completed` plus `failed` requests, the failed ones ranked as +infinity.
// Returns +infinity when the rank lands among the failures, and 0 when there
// are no requests at all.
inline double PercentileCountingFailures(std::vector<double> completed, int64_t failed,
                                         double p) {
  const size_t n = completed.size() + static_cast<size_t>(std::max<int64_t>(failed, 0));
  if (n == 0) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (rank > completed.size()) {
    return std::numeric_limits<double>::infinity();
  }
  const auto nth = completed.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(completed.begin(), nth, completed.end());
  return *nth;
}

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
