// Scenario sweep: the declarative workload path end to end.
//
// 1. Enumerates the bench harness's scenario registry and runs a few named
//    entries through the parallel runner.
// 2. Parses a scenario from Autopilot-style config text — the same flat
//    key=value format PerfIso configs are distributed in — and runs it.
//    Editing the text below (a different load shape, another tenant, an
//    isolation knob) is all it takes to define a new experiment.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"

int main() {
  using namespace perfiso;
  using namespace perfiso::bench;

  std::printf("registered scenarios:\n");
  for (const std::string& name : ScenarioNames()) {
    std::printf("  %s\n", name.c_str());
  }

  const std::vector<std::string> sweep = {"standalone", "no-isolation-high", "blind-high",
                                          "flash-crowd-blind"};
  std::printf("\nsweep over %zu registry scenarios (parallel runner):\n", sweep.size());
  PrintRowHeader();
  const std::vector<SingleBoxResult> results = RunNamedScenarios(sweep);
  for (size_t i = 0; i < sweep.size(); ++i) {
    PrintRow(sweep[i], results[i]);
  }

  const char* kSpecText = R"(
# A burst train against a 48-thread bully under blind isolation, declared in
# the same config format Autopilot distributes.
workload.name = example-burst-train
workload.shape = square_wave
workload.qps = 1000
workload.square.burst_qps = 4000
workload.square.period_sec = 2
workload.square.duty = 0.25
workload.tenants.cpu_bully_threads = 48
workload.measure_ns = 6000000000
workload.isolation = perfiso
perfiso.cpu.mode = blind
perfiso.cpu.buffer_cores = 8
)";
  auto map = ConfigMap::Parse(kSpecText);
  if (!map.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", map.status().ToString().c_str());
    return 1;
  }
  auto spec = ScenarioSpec::FromConfigMap(*map);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec rejected: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  std::printf("\nscenario parsed from config text (%s):\n", spec->name.c_str());
  PrintRowHeader();
  PrintRow(spec->name, RunSingleBox(*spec));
  return 0;
}
