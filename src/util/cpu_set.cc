#include "src/util/cpu_set.h"

namespace perfiso {

std::string CpuSet::ToString() const {
  if (Empty()) {
    return "(empty)";
  }
  std::string out;
  int run_start = -1;
  int prev = -2;
  auto flush = [&](int run_end) {
    if (run_start < 0) {
      return;
    }
    if (!out.empty()) {
      out += ",";
    }
    out += std::to_string(run_start);
    if (run_end > run_start) {
      out += "-" + std::to_string(run_end);
    }
  };
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    if (!Test(cpu)) {
      continue;
    }
    if (cpu != prev + 1) {
      flush(prev);
      run_start = cpu;
    }
    prev = cpu;
  }
  flush(prev);
  return out;
}

}  // namespace perfiso
