// perfiso_lint: repo-specific determinism & lifetime rules for the PerfIso
// reproduction, run over src/, bench/, tests/, and examples/.
//
// The checker is a real single-pass tokenizer, not a grep: it skips line and
// block comments, string / char / raw-string literals, and preprocessor
// lines, so `// no std::rand() here` or `"steady_clock"` in a log message
// never trip a rule. Findings can be silenced inline with
// `// NOLINT(perfiso-DET-003)` on the offending line or
// `// NOLINTNEXTLINE(perfiso-DET-003)` on the line above; a bare `NOLINT`
// silences every rule on that line. Every suppression should carry a
// rationale comment — the rules exist because one stray wall-clock read or
// address-ordered container silently breaks golden-digest reproducibility.
//
// Rules:
//   DET-001  no wall-clock reads (chrono system/steady/high_resolution
//            clocks, time(), gettimeofday, clock_gettime) outside the bench
//            timing harness allowlist — simulated time comes from Simulator.
//   DET-002  no std::rand / std::random_device / ad-hoc std engines — all
//            randomness flows through util/rng.h seeded generators.
//   DET-003  no std::unordered_{map,set,...} in simulation-visible code
//            (src/, bench/): hash-seed iteration order varies across runs.
//   DET-004  no ordered containers keyed by raw pointer value: address order
//            is nondeterministic across runs.
//   FLT-001  retries must be bounded and backed off: (a) a ScheduleAfter
//            arming a retry-named handle/callback with no backoff-named
//            identifier within ±20 lines (re-issues go through
//            ComputeBackoff, src/fault/retry.h); (b) a while/for loop whose
//            header names a retry variable but carries no bound comparison.
//            ScheduleOrTighten (resource-model bucket wakes) and range-for
//            loops are exempt.
//   PERF-001 hot-loop re-arm: `handle = Schedule(...)` / `ScheduleAfter(...)`
//            assigning a bare identifier inside a loop body in
//            simulation-visible code (src/, bench/) pays allocate + sift
//            churn every iteration and orphans the previously armed event —
//            Reschedule(handle, when) relinks the pending record in O(1) on
//            the timing wheel (ScheduleOrTighten when the handle may be
//            stale). Indexed / member targets (one event per distinct owner),
//            declarations, and lambda bodies merely defined inside a loop
//            are exempt.
//   PERF-002 no std::function in src/ outside the built-once allowlist: a
//            capture wider than libstdc++'s 16-byte buffer costs a heap
//            allocation per construction and per copy, so per-request
//            callbacks are InlineFn (src/util/inline_fn.h), which holds its
//            target in place and never allocates. std::function stays only
//            where a callable is built once per run: LogSink, AddProbe,
//            ForEachIndexNode and the load clients' SubmitFn.
//   LIFE-001 EventHandle members in a class with no destructor and no
//            Cancel* member: armed events can outlive their owner (heuristic,
//            suppress when another object owns the lifecycle).
//   OBS-001  the name argument of the observability sinks (MetricsRegistry::
//            AddCounter/AddGauge/AddProbe/AddHistogram, Tracer::Instant/
//            BeginTrace/Span) must be a single lowercase dot-separated string
//            literal — hot paths never build metric/span name strings, and
//            the Perfetto export vocabulary stays greppable. Topology
//            registration (RegisterProcess/RegisterTrack) is exempt: machine
//            and track names are constructed per rig.
#ifndef PERFISO_TOOLS_LINT_LINT_CORE_H_
#define PERFISO_TOOLS_LINT_LINT_CORE_H_

#include <string>
#include <vector>

namespace perfiso {
namespace lint {

// Where a file sits in the repo; decides which rules apply (DET-003 only
// bites simulation-visible code). Derived from path components so fixture
// trees under tools/lint/testdata/<category>/ categorize like the real tree.
enum class FileCategory { kSrc, kBench, kTests, kExamples, kOther };

FileCategory CategorizeByPath(const std::string& path);
const char* CategoryName(FileCategory category);

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  // e.g. "perfiso-DET-001"
  std::string message;

  bool operator==(const Finding&) const = default;
};

struct LintOptions {
  // Files exempt per rule, matched as path suffixes ('/'-separated).
  std::vector<std::string> det001_allowlist = {
      "bench/harness.h",         // wall-clock timing of real benches
      "bench/harness.cc",
      "bench/micro_overheads.cc",   // measures the engine with a real clock
      "bench/fig_cluster_scale.cc",  // times the 1,000-leaf day with a real clock
  };
  std::vector<std::string> det002_allowlist = {
      "src/util/rng.h",  // the one sanctioned randomness implementation
      "src/util/rng.cc",
  };
  std::vector<std::string> perf002_allowlist = {
      "src/util/logging.h",         // LogSink: installed once per process
      "src/obs/metrics.h",          // AddProbe: registered once per run
      "src/obs/metrics.cc",
      "src/cluster/cluster.h",      // ForEachIndexNode: a setup-time visitor
      "src/cluster/cluster.cc",
      "src/workload/query_trace.h",  // SubmitFn: one per load client
  };
};

// Lints one translation unit's text. `path` is used for reporting, category
// selection, and allowlist matching; findings come back in line order.
std::vector<Finding> LintSource(const std::string& path, const std::string& content,
                                const LintOptions& options = LintOptions());

// Reads `path` and lints it. Unreadable files produce a single synthetic
// finding with rule "perfiso-IO" so CI fails loudly instead of skipping.
std::vector<Finding> LintFile(const std::string& path,
                              const LintOptions& options = LintOptions());

// Machine-readable report: {"findings":[{file,line,rule,message},...]}.
std::string ToJson(const std::vector<Finding>& findings);

}  // namespace lint
}  // namespace perfiso

#endif  // PERFISO_TOOLS_LINT_LINT_CORE_H_
