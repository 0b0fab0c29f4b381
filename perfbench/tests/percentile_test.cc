// Self-test of the driver's latency rule: a dropped or failed request counts
// as beyond every latency limit. Exits non-zero on the first failed check.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "latency.h"
#include "src/util/stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::PercentileCountingFailures;

  // 1..100 ms completed in shuffled order, as a recorder would hold them.
  perfiso::LatencyRecorder recorder;
  for (int i = 0; i < 100; ++i) {
    recorder.Add(static_cast<double>((i * 37) % 100 + 1));
  }
  const std::vector<double>& samples = recorder.samples();

  // Without failures the rule is LatencyRecorder's nearest rank.
  Expect(PercentileCountingFailures(samples, 0, 50) == recorder.P50(), "p50, no drops");
  Expect(PercentileCountingFailures(samples, 0, 99) == recorder.P99(), "p99, no drops");
  Expect(PercentileCountingFailures(samples, 0, 99) == 99, "p99 of 1..100 is 99");

  // One drop among 101 requests: rank ceil(0.99 * 101) = 100 is still a
  // completed request, the slowest one.
  Expect(PercentileCountingFailures(samples, 1, 99) == 100, "p99 with 1 drop of 101");
  // Two drops among 102: rank ceil(0.99 * 102) = 101 lands on a drop.
  Expect(std::isinf(PercentileCountingFailures(samples, 2, 99)), "p99 with 2 drops of 102");
  // Drops push the median up: 100 completed + 20 dropped, rank 60.
  Expect(PercentileCountingFailures(samples, 20, 50) == 60, "p50 with 20 drops of 120");
  // Half the requests dropped: the median itself is beyond every limit.
  Expect(std::isinf(PercentileCountingFailures(samples, 101, 50)), "p50, mostly drops");
  // A recorder that saw nothing.
  Expect(PercentileCountingFailures({}, 0, 99) == 0, "empty recorder");
  Expect(std::isinf(PercentileCountingFailures({}, 3, 50)), "only drops");

  if (failures == 0) {
    std::printf("percentile_test: all checks passed\n");
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
