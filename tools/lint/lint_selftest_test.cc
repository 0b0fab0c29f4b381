// Self-test for perfiso_lint: fixture files under tools/lint/testdata/ carry
// seeded violations (asserted by exact rule id + line) next to clean decoys
// (comments, strings, raw strings, preprocessor text, allowlisted paths,
// category-scoped files) that must stay quiet, plus suppression coverage.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tools/lint/lint_core.h"

namespace perfiso {
namespace lint {
namespace {

#ifndef PERFISO_LINT_TESTDATA
#error "PERFISO_LINT_TESTDATA must point at tools/lint/testdata"
#endif

std::vector<std::pair<std::string, int>> RuleLines(const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) {
    out.emplace_back(f.rule, f.line);
  }
  return out;
}

std::vector<Finding> LintFixture(const std::string& rel) {
  return LintFile(std::string(PERFISO_LINT_TESTDATA) + "/" + rel);
}

using RL = std::vector<std::pair<std::string, int>>;

TEST(LintFixtures, Det001FlagsEveryWallClockReadAndHonorsSuppression) {
  const RL got = RuleLines(LintFixture("src/bad_clock.cc"));
  const RL want = {
      {"perfiso-DET-001", 11},  // steady_clock::now()
      {"perfiso-DET-001", 15},  // alias laundering: using X = system_clock
      {"perfiso-DET-001", 17},  // time(nullptr)
  };
  EXPECT_EQ(got, want);  // line 20 is NOLINT-suppressed
}

TEST(LintFixtures, Det002FlagsAdHocRandomness) {
  const RL got = RuleLines(LintFixture("src/bad_rng.cc"));
  const RL want = {
      {"perfiso-DET-002", 8},   // std::mt19937
      {"perfiso-DET-002", 12},  // std::random_device
      {"perfiso-DET-002", 14},  // rand()
  };
  EXPECT_EQ(got, want);  // line 17 is NOLINTNEXTLINE-suppressed
}

TEST(LintFixtures, Det003FlagsHashContainersInSrc) {
  const RL got = RuleLines(LintFixture("src/bad_unordered.cc"));
  const RL want = {
      {"perfiso-DET-003", 9},
      {"perfiso-DET-003", 10},
  };
  EXPECT_EQ(got, want);  // includes on lines 4-5 are preprocessor text
}

TEST(LintFixtures, Det003IsScopedToSimulationVisibleCode) {
  EXPECT_TRUE(LintFixture("tests/unordered_ok.cc").empty());
}

TEST(LintFixtures, Det004FlagsPointerKeyedContainers) {
  const RL got = RuleLines(LintFixture("src/bad_ptr_key.cc"));
  const RL want = {
      {"perfiso-DET-004", 11},  // std::set<Node*>
      {"perfiso-DET-004", 12},  // std::map<Node*, int>
      {"perfiso-DET-004", 13},  // std::priority_queue<Node*>
  };
  EXPECT_EQ(got, want);  // pointer *values* and nested keys stay clean
}

TEST(LintFixtures, Life001FlagsHandleMembersWithoutTeardown) {
  const RL got = RuleLines(LintFixture("src/bad_life.cc"));
  const RL want = {
      {"perfiso-LIFE-001", 11},  // Leaky::pending_
  };
  EXPECT_EQ(got, want);  // dtor / CancelAll / NOLINT classes stay clean
}

TEST(LintFixtures, Flt001FlagsRetryWithoutBackoffAndUnboundedLoops) {
  const RL got = RuleLines(LintFixture("src/bad_retry.cc"));
  const RL want = {
      {"perfiso-FLT-001", 26},  // ScheduleAfter-armed retry, no backoff near
      {"perfiso-FLT-001", 31},  // while (r->NeedsRetry()) with no bound
  };
  // Quiet by design: the NOLINTNEXTLINE probe, ScheduleOrTighten bucket
  // wakes, range-for over retry handles, ComputeBackoff-fed ScheduleAfter,
  // the `<`-bounded retry loop, and the retry-free plain timer.
  EXPECT_EQ(got, want);
}

TEST(LintSource, Flt001BackoffEvidenceWindowIsTwentyLines) {
  // Backoff evidence exactly 20 lines above the arming line still counts...
  const std::string near_backoff =
      "void A(S* s) { auto d = ComputeBackoff(p, n, r); }\n" + std::string(19, '\n') +
      "void B(S* s) { s->retry_h = s->sim->ScheduleAfter(d, cb); }\n";
  EXPECT_TRUE(LintSource("src/x.cc", near_backoff).empty());
  // ...but 21 lines away it no longer reaches.
  const std::string far_backoff =
      "void A(S* s) { auto d = ComputeBackoff(p, n, r); }\n" + std::string(20, '\n') +
      "void B(S* s) { s->retry_h = s->sim->ScheduleAfter(d, cb); }\n";
  const auto findings = LintSource("src/x.cc", far_backoff);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "perfiso-FLT-001");
  EXPECT_EQ(findings[0].line, 22);
}

TEST(LintSource, Flt001RetryNameWindowIsTwoLinesAboveTheCall) {
  // A retry identifier two lines above the ScheduleAfter still marks it as a
  // retry arm; three lines above does not.
  const auto in_window = LintSource(
      "src/x.cc", "int retry_budget;\nint y;\nauto h = sim->ScheduleAfter(d, cb);\n");
  ASSERT_EQ(in_window.size(), 1u);
  EXPECT_EQ(in_window[0].rule, "perfiso-FLT-001");
  const auto out_of_window = LintSource(
      "src/x.cc", "int retry_budget;\nint y;\nint z;\nauto h = sim->ScheduleAfter(d, cb);\n");
  EXPECT_TRUE(out_of_window.empty());
}

TEST(LintSource, Flt001LoopHeaderOnlyNotBody) {
  // Retry identifiers in the loop *body* do not make the loop a retry loop —
  // only the header is inspected.
  const auto findings = LintSource(
      "src/x.cc", "void F(S* s) { while (s->Pending()) { s->retry_count++; } }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, Flt001CaseInsensitiveIdentifiers) {
  const auto findings = LintSource(
      "src/x.cc", "void F(S* s) { while (s->NeedsRETRY()) { s->Go(); } }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "perfiso-FLT-001");
}

TEST(LintFixtures, Perf001FlagsLoopReArmsAndHonorsSuppression) {
  const RL got = RuleLines(LintFixture("src/bad_rearm_loop.cc"));
  const RL want = {
      {"perfiso-PERF-001", 20},  // braced while body
      {"perfiso-PERF-001", 27},  // braceless for body
      {"perfiso-PERF-001", 33},  // conditional re-arm inside the loop
  };
  // Quiet by design: the NOLINTNEXTLINE fan-out, Reschedule, indexed and
  // member targets, the lambda defined inside the loop, and the
  // straight-line arm.
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, Perf002FlagsStdFunctionInSrcAndHonorsSuppression) {
  const RL got = RuleLines(LintFixture("src/bad_std_function.cc"));
  const RL want = {
      {"perfiso-PERF-002", 11},  // alias
      {"perfiso-PERF-002", 15},  // member
      {"perfiso-PERF-002", 19},  // parameter
  };
  // Quiet by design: InlineFn, the string and comment mentions, the #include
  // and the NOLINT line.
  EXPECT_EQ(got, want);
}

TEST(LintSource, Perf002IsScopedToSrcOutsideTheAllowlist) {
  const std::string code = "using Fn = std::function<void()>;\n";
  EXPECT_EQ(LintSource("src/sim/machine.h", code).size(), 1u);
  EXPECT_TRUE(LintSource("tests/machine_test.cc", code).empty());
  EXPECT_TRUE(LintSource("bench/harness.h", code).empty());
  EXPECT_TRUE(LintSource("examples/quickstart.cc", code).empty());
  EXPECT_TRUE(LintSource("src/cluster/cluster.cc", code).empty());
  // Only std::function: a member or free function named `function` is not it.
  EXPECT_TRUE(LintSource("src/x.cc", "int function(); int y = obj.function();\n").empty());
}

TEST(LintSource, Perf001BracelessAndDoWhileBodies) {
  const auto braceless = LintSource(
      "src/x.cc", "void F(S* s, H h) { while (s->Busy()) h = s->sim->Schedule(5, cb); }\n");
  ASSERT_EQ(braceless.size(), 1u);
  EXPECT_EQ(braceless[0].rule, "perfiso-PERF-001");
  const auto do_while = LintSource(
      "src/x.cc",
      "void F(S* s, H h) { do h = s->sim->ScheduleAfter(5, cb); while (s->Busy()); }\n");
  ASSERT_EQ(do_while.size(), 1u);
  EXPECT_EQ(do_while[0].rule, "perfiso-PERF-001");
}

TEST(LintSource, Perf001LambdaArgumentSplitFlagsOnce) {
  // The callback lambda's '{' splits the statement mid-call; the re-arm must
  // still be seen, and seen exactly once.
  const auto findings = LintSource(
      "src/x.cc",
      "void F(S* s, H h) { while (s->Busy()) { h = s->Schedule(5, [s] { s->Go(); }); } }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "perfiso-PERF-001");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintSource, Perf001LambdaDefinedInLoopIsNotALoopBody) {
  // The lambda body runs per fire, not per iteration — no churn to flag.
  const auto findings = LintSource(
      "src/x.cc",
      "void F(S* s, H h) { while (s->Busy()) { s->Defer([&] { h = s->Schedule(5, cb); }); } }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, Perf001OnlyBitesBareIdentifierTargetsInSimVisibleCode) {
  const std::string indexed =
      "void F(S* s) { for (int i = 0; i < 4; ++i) s->slots[i] = s->Schedule(5, cb); }\n";
  EXPECT_TRUE(LintSource("src/x.cc", indexed).empty());
  const std::string bare =
      "void F(S* s, H h) { for (int i = 0; i < 4; ++i) h = s->Schedule(5, cb); }\n";
  ASSERT_EQ(LintSource("src/x.cc", bare).size(), 1u);
  EXPECT_TRUE(LintSource("tests/x.cc", bare).empty());
}

TEST(LintSource, Perf001StraightLineAndScheduleOrTightenAreClean) {
  EXPECT_TRUE(LintSource(
      "src/x.cc", "void F(S* s, H h) { if (s->Stale(h)) h = s->Schedule(5, cb); }\n").empty());
  EXPECT_TRUE(LintSource(
      "src/x.cc",
      "void F(S* s, H h) { while (s->Busy()) { s->ScheduleOrTighten(h, 5, cb); } }\n").empty());
}

TEST(LintFixtures, Obs001FlagsNonLiteralMetricNames) {
  const RL got = RuleLines(LintFixture("src/bad_obs_name.cc"));
  const RL want = {
      {"perfiso-OBS-001", 20},  // AddCounter(dynamic_name)
      {"perfiso-OBS-001", 21},  // AddGauge("Mixed.Case")
      {"perfiso-OBS-001", 22},  // AddHistogram("disk..queue", ...)
      {"perfiso-OBS-001", 23},  // Instant(ternary ? ... : ...)
      {"perfiso-OBS-001", 24},  // Span(ctx, dynamic_name, ...): name is arg 1
  };
  EXPECT_EQ(got, want);  // Clean() block: literals, RegisterProcess, NOLINT
}

TEST(LintSource, Obs001AcceptsNestedCallInContextArgument) {
  // The name of Span is argument 1; a nested BeginTrace call (with its own
  // comma) in argument 0 must not shift the argument split.
  const auto findings = LintSource(
      "src/x.cc", "void F(T* t) { t->Span(t->BeginTrace(\"isq\", 0), \"cpu.run\", c, 0, a, b); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, Obs001IgnoresDeclarationsAndFreeFunctions) {
  // Member declarations / definitions (no preceding . or ->) and unrelated
  // free functions named like sinks stay quiet.
  const auto findings = LintSource(
      "src/x.cc",
      "struct T { void Instant(const char* n, int t, long a); };\n"
      "void Tracer::Instant(const char* name, int track, long at) {}\n"
      "long Instant(long x) { return x; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, Obs001StringMemberDoesNotTripLife001) {
  // A string literal mentioning EventHandle inside a class must not register
  // as a handle member now that the lexer emits string tokens.
  const auto findings = LintSource(
      "src/x.cc", "class Owner {\n  const char* doc_ = \"EventHandle lives here\";\n};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtures, DecoyCorpusIsEntirelyClean) {
  const std::vector<Finding> got = LintFixture("src/clean_decoys.cc");
  EXPECT_TRUE(got.empty()) << (got.empty() ? "" : got.front().message);
}

TEST(LintFixtures, AllowlistsExemptTheSanctionedFiles) {
  EXPECT_TRUE(LintFixture("bench/micro_overheads.cc").empty());
  EXPECT_TRUE(LintFixture("src/util/rng.h").empty());
  EXPECT_TRUE(LintFixture("src/workload/query_trace.h").empty());
}

// --- Direct LintSource coverage of tokenizer / suppression corners --------

TEST(LintSource, BareNolintSuppressesEveryRule) {
  const auto findings = LintSource(
      "src/x.cc", "auto t = std::chrono::steady_clock::now();  // NOLINT\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, WrongRuleInNolintDoesNotSuppress) {
  const auto findings = LintSource(
      "src/x.cc", "auto t = std::chrono::steady_clock::now();  // NOLINT(perfiso-DET-002)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "perfiso-DET-001");
}

TEST(LintSource, BareRuleNameInNolintSuppresses) {
  const auto findings =
      LintSource("src/x.cc", "std::unordered_map<int, int> m;  // NOLINT(DET-003)\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, DoubleAngleCloseDoesNotConfuseDet004) {
  // The '>>' closing two template levels must lex as two tokens; the key of
  // the outer map is a by-value pair, so this is clean.
  const auto findings = LintSource(
      "src/x.cc", "std::map<std::pair<int, int>, std::vector<int>> m;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, Det004SeesPointerKeyBehindNestedArgs) {
  const auto findings =
      LintSource("src/x.cc", "std::map<Thing*, std::vector<int>> m;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "perfiso-DET-004");
}

TEST(LintSource, MultiLineBlockCommentKeepsLineNumbers) {
  const auto findings = LintSource(
      "src/x.cc", "/* line one\nline two\n*/\nstd::mt19937 gen;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintSource, PreprocessorContinuationSkipsWholeDirective) {
  const auto findings = LintSource(
      "src/x.cc", "#define PICK_CLOCK \\\n  std::chrono::steady_clock\nint x;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, MemberFunctionNamedCancelCountsAsTeardown) {
  const auto findings = LintSource(
      "src/x.cc",
      "class Owner {\n public:\n  void CancelPending();\n private:\n"
      "  EventHandle h_;\n};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, VectorOfHandlesWithoutTeardownIsFlagged) {
  const auto findings = LintSource(
      "src/x.cc",
      "class Owner {\n  std::vector<EventHandle> handles_;\n};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "perfiso-LIFE-001");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintSource, QualifiedClassNameMatchesItsDestructor) {
  // struct Outer::Inner { ~Inner(); ... } — the dtor must count as teardown.
  const auto findings = LintSource(
      "src/x.cc",
      "struct Outer::Inner {\n  ~Inner();\n  EventHandle h_;\n};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Categorize, RightmostComponentWins) {
  EXPECT_EQ(CategorizeByPath("/repo/src/sim/simulator.cc"), FileCategory::kSrc);
  EXPECT_EQ(CategorizeByPath("tools/lint/testdata/bench/x.cc"), FileCategory::kBench);
  EXPECT_EQ(CategorizeByPath("tools/lint/lint_core.cc"), FileCategory::kOther);
}

TEST(Json, EscapesAndCounts) {
  const std::string json = ToJson({Finding{"a\"b.cc", 7, "perfiso-DET-001", "msg"}});
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b.cc"), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
}

}  // namespace
}  // namespace lint
}  // namespace perfiso
