#include "tools/lint/lint_core.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace perfiso {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer. Comments, string/char/raw-string literals, and preprocessor
// lines are consumed without emitting tokens; NOLINT directives found inside
// comments are collected into a per-line suppression map. Only `::` and `->`
// are merged into multi-character punctuation — `<` and `>` stay single so a
// `>>` closing two template levels never confuses the template-argument scan.
// ---------------------------------------------------------------------------
struct Token {
  // kString carries the literal's inner text (quotes stripped, escapes kept
  // verbatim) so OBS-001 can validate metric/span names; the determinism and
  // lifetime rules ignore string tokens entirely.
  enum class Kind { kIdent, kPunct, kString };
  Kind kind;
  std::string text;
  int line;
};

struct Suppression {
  bool all = false;
  std::set<std::string> rules;
};

struct Lexed {
  std::vector<Token> tokens;
  std::map<int, Suppression> suppressions;
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// Scans a comment's text for NOLINT / NOLINTNEXTLINE directives.
// `comment_line` is the line the comment starts on; occurrences inside a
// multi-line block comment are attributed to the line they appear on.
void ParseNolint(const std::string& text, int comment_line, Lexed* out) {
  size_t pos = 0;
  while ((pos = text.find("NOLINT", pos)) != std::string::npos) {
    const int here =
        comment_line + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
    size_t after = pos + 6;
    int target = here;
    if (text.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
      after = pos + 14;
      target = here + 1;
    }
    Suppression& s = out->suppressions[target];
    if (after < text.size() && text[after] == '(') {
      const size_t close = text.find(')', after);
      const std::string inner =
          text.substr(after + 1, (close == std::string::npos ? text.size() : close) - after - 1);
      std::istringstream in(inner);
      std::string rule;
      while (std::getline(in, rule, ',')) {
        rule = Trim(rule);
        if (!rule.empty()) {
          s.rules.insert(rule);
        }
      }
      pos = (close == std::string::npos) ? text.size() : close + 1;
    } else {
      s.all = true;
      pos = after;
    }
  }
}

Lexed Lex(const std::string& s) {
  Lexed out;
  const size_t n = s.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // nothing but whitespace so far on this line
  bool in_preproc = false;

  const auto emit = [&](Token::Kind kind, std::string text, int at) {
    if (!in_preproc) {
      out.tokens.push_back(Token{kind, std::move(text), at});
    }
  };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      in_preproc = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Preprocessor line continuation.
    if (in_preproc && c == '\\' && i + 1 < n && (s[i + 1] == '\n' || s[i + 1] == '\r')) {
      i += (i + 2 < n && s[i + 1] == '\r' && s[i + 2] == '\n') ? 3 : 2;
      ++line;
      continue;
    }
    if (c == '#' && at_line_start) {
      in_preproc = true;
      at_line_start = false;
      ++i;
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      const size_t end = s.find('\n', i);
      const size_t stop = (end == std::string::npos) ? n : end;
      ParseNolint(s.substr(i, stop - i), line, &out);
      i = stop;  // leave the '\n' for the line counter
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const size_t end = s.find("*/", i + 2);
      const size_t stop = (end == std::string::npos) ? n : end + 2;
      const std::string body = s.substr(i, stop - i);
      ParseNolint(body, line, &out);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = stop;
      continue;
    }
    // Raw string literals: (u8|u|U|L)?R"delim( ... )delim"
    if (IsIdentStart(c)) {
      size_t p = i;
      if (s[p] == 'u' && p + 1 < n && s[p + 1] == '8') {
        p += 2;
      } else if (s[p] == 'u' || s[p] == 'U' || s[p] == 'L') {
        p += 1;
      }
      if (p < n && s[p] == 'R' && p + 1 < n && s[p + 1] == '"') {
        const size_t open = s.find('(', p + 2);
        if (open != std::string::npos) {
          const std::string delim = ")" + s.substr(p + 2, open - (p + 2)) + "\"";
          const size_t end = s.find(delim, open + 1);
          const size_t stop = (end == std::string::npos) ? n : end + delim.size();
          line += static_cast<int>(
              std::count(s.begin() + static_cast<std::ptrdiff_t>(i),
                         s.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
          i = stop;
          continue;
        }
      }
      // Plain identifier.
      size_t e = i;
      while (e < n && IsIdentChar(s[e])) {
        ++e;
      }
      emit(Token::Kind::kIdent, s.substr(i, e - i), line);
      i = e;
      continue;
    }
    // Numbers (consumed so 1'000'000 digit separators can't open a char
    // literal; exponent signs ride along).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
      size_t e = i;
      while (e < n) {
        const char d = s[e];
        if (IsIdentChar(d) || d == '.') {
          ++e;
        } else if (d == '\'' && e + 1 < n && IsIdentChar(s[e + 1])) {
          e += 2;
        } else if ((d == '+' || d == '-') && e > i &&
                   (s[e - 1] == 'e' || s[e - 1] == 'E' || s[e - 1] == 'p' || s[e - 1] == 'P')) {
          ++e;
        } else {
          break;
        }
      }
      i = e;
      continue;
    }
    // String / char literals. Double-quoted literals become kString tokens
    // (OBS-001 validates them); char literals are consumed silently.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      size_t e = i + 1;
      while (e < n) {
        if (s[e] == '\\' && e + 1 < n) {
          e += 2;
          continue;
        }
        if (s[e] == quote) {
          ++e;
          break;
        }
        if (s[e] == '\n') {
          ++line;  // ill-formed C++, but keep line numbers sane
        }
        ++e;
      }
      if (quote == '"') {
        const size_t body = i + 1;
        const size_t body_end = (e > i + 1 && s[e - 1] == '"') ? e - 1 : e;
        emit(Token::Kind::kString, s.substr(body, body_end - body), start_line);
      }
      i = e;
      continue;
    }
    // Punctuation; merge only :: and ->.
    if (c == ':' && i + 1 < n && s[i + 1] == ':') {
      emit(Token::Kind::kPunct, "::", line);
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && s[i + 1] == '>') {
      emit(Token::Kind::kPunct, "->", line);
      i += 2;
      continue;
    }
    emit(Token::Kind::kPunct, std::string(1, c), line);
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule helpers.
// ---------------------------------------------------------------------------
bool SuffixMatch(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size() || path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return path.size() == suffix.size() || path[path.size() - suffix.size() - 1] == '/';
}

bool MatchesAny(const std::string& path, const std::vector<std::string>& suffixes) {
  for (const std::string& suffix : suffixes) {
    if (SuffixMatch(path, suffix)) {
      return true;
    }
  }
  return false;
}

const std::set<std::string> kClockIdents = {
    "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday", "clock_gettime",
};
const std::set<std::string> kRngIdents = {
    "random_device", "mt19937",     "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24",  "ranlux48",
};
const std::set<std::string> kUnorderedIdents = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};
const std::set<std::string> kOrderedByKey = {
    "map", "set", "multimap", "multiset", "priority_queue",
};

// OBS-001: the observability sinks whose name argument must be a single
// lowercase dot-separated string literal, and which argument carries the
// name (Tracer::Span takes the context first). Registration calls
// (RegisterProcess/RegisterTrack) are deliberately absent: topology names
// are per-machine and may be built at rig-construction time.
const std::map<std::string, int> kObsSinkNameArg = {
    {"AddCounter", 0}, {"AddGauge", 0}, {"AddProbe", 0}, {"AddHistogram", 0},
    {"Instant", 0},    {"BeginTrace", 0}, {"Span", 1},
};

// Lowercase dot-separated: [a-z0-9_]+(\.[a-z0-9_]+)*
bool IsObsMetricName(const std::string& s) {
  bool segment_empty = true;
  for (const char c : s) {
    if (c == '.') {
      if (segment_empty) {
        return false;
      }
      segment_empty = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      segment_empty = false;
    } else {
      return false;
    }
  }
  return !segment_empty;
}

// Splits the call starting at toks[open] == "(" into top-level argument
// spans and returns the tokens of argument `arg_index` (empty when the call
// has fewer arguments or the parens never close).
std::vector<const Token*> CallArgument(const std::vector<Token>& toks, size_t open,
                                       int arg_index) {
  std::vector<const Token*> arg;
  int depth = 1;
  int current = 0;
  for (size_t j = open + 1; j < toks.size() && depth > 0; ++j) {
    const std::string& p = toks[j].text;
    if (p == "(" || p == "[" || p == "{") {
      ++depth;
    } else if (p == ")" || p == "]" || p == "}") {
      --depth;
      if (depth == 0) {
        return current == arg_index ? arg : std::vector<const Token*>{};
      }
    } else if (p == "," && depth == 1) {
      if (current == arg_index) {
        return arg;
      }
      ++current;
      continue;
    }
    if (current == arg_index) {
      arg.push_back(&toks[j]);
    }
  }
  return {};
}

// True when tokens[idx] reads as a free-function call: `name(` not reached
// through `.`/`->` (member access) and not preceded by a non-keyword
// identifier (which would make it a declaration like `SimTime time(...)`).
bool IsFreeCall(const std::vector<Token>& toks, size_t idx) {
  static const std::set<std::string> kCallContextKeywords = {
      "return", "co_return", "co_yield", "case", "if", "while", "else", "do",
  };
  if (idx + 1 >= toks.size() || toks[idx + 1].text != "(") {
    return false;
  }
  if (idx == 0) {
    return true;
  }
  const Token& prev = toks[idx - 1];
  if (prev.text == "." || prev.text == "->") {
    return false;
  }
  return prev.kind != Token::Kind::kIdent || kCallContextKeywords.count(prev.text) != 0;
}

bool PrecededByStd(const std::vector<Token>& toks, size_t idx) {
  return idx >= 2 && toks[idx - 1].text == "::" && toks[idx - 2].text == "std";
}

// ---------------------------------------------------------------------------
// LIFE-001 scope machine: tracks class/struct bodies, their EventHandle
// members, and whether the class declares a destructor or any Cancel* member.
// ---------------------------------------------------------------------------
struct ClassScope {
  bool is_class = false;
  std::string name;
  bool has_dtor = false;
  bool has_cancel = false;
  std::vector<std::pair<int, std::string>> handle_members;  // (line, name)
};

// Case-insensitive substring probe for FLT-001's identifier matching, so
// retry_count, RetryLoop, and kMaxRetries all read as retry-related.
bool IdentContains(const std::string& text, const std::string& lowered_needle) {
  std::string lowered;
  lowered.reserve(text.size());
  for (const char c : text) {
    lowered.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return lowered.find(lowered_needle) != std::string::npos;
}

bool BufferContains(const std::vector<const Token*>& buf, const std::string& text) {
  for (const Token* t : buf) {
    if (t->text == text) {
      return true;
    }
  }
  return false;
}

void InspectStatement(const std::vector<const Token*>& buf, ClassScope* scope) {
  if (!scope->is_class || buf.empty()) {
    return;
  }
  for (size_t k = 0; k + 1 < buf.size(); ++k) {
    if (buf[k]->text == "~" && buf[k + 1]->text == scope->name) {
      scope->has_dtor = true;
    }
    if (buf[k]->kind == Token::Kind::kIdent &&
        buf[k]->text.find("Cancel") != std::string::npos && buf[k + 1]->text == "(") {
      scope->has_cancel = true;
    }
  }
  // Member declaration: a statement at class depth mentioning EventHandle
  // with no parentheses (parens mean a function signature or NSDMI call).
  if (BufferContains(buf, "EventHandle") && !BufferContains(buf, "(") &&
      !BufferContains(buf, "using") && !BufferContains(buf, "typedef") &&
      !BufferContains(buf, "friend") && !BufferContains(buf, "class") &&
      !BufferContains(buf, "struct")) {
    const Token* name = nullptr;
    for (const Token* t : buf) {
      if (t->kind == Token::Kind::kIdent) {
        name = t;
      }
    }
    if (name != nullptr && name->text != "EventHandle") {
      scope->handle_members.emplace_back(name->line, name->text);
    }
  }
}

}  // namespace

FileCategory CategorizeByPath(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  FileCategory category = FileCategory::kOther;
  size_t pos = 0;
  while (pos <= norm.size()) {
    const size_t next = norm.find('/', pos);
    const std::string part = norm.substr(pos, (next == std::string::npos ? norm.size() : next) - pos);
    // Right-most wins so tools/lint/testdata/src/... categorizes as src.
    if (part == "src") {
      category = FileCategory::kSrc;
    } else if (part == "bench") {
      category = FileCategory::kBench;
    } else if (part == "tests") {
      category = FileCategory::kTests;
    } else if (part == "examples") {
      category = FileCategory::kExamples;
    }
    if (next == std::string::npos) {
      break;
    }
    pos = next + 1;
  }
  return category;
}

const char* CategoryName(FileCategory category) {
  switch (category) {
    case FileCategory::kSrc:
      return "src";
    case FileCategory::kBench:
      return "bench";
    case FileCategory::kTests:
      return "tests";
    case FileCategory::kExamples:
      return "examples";
    case FileCategory::kOther:
      return "other";
  }
  return "?";
}

std::vector<Finding> LintSource(const std::string& path, const std::string& content,
                                const LintOptions& options) {
  const Lexed lx = Lex(content);
  const std::vector<Token>& toks = lx.tokens;
  const FileCategory category = CategorizeByPath(path);
  const bool det001_allowed = MatchesAny(path, options.det001_allowlist);
  const bool det002_allowed = MatchesAny(path, options.det002_allowlist);
  const bool perf002_applies =
      category == FileCategory::kSrc && !MatchesAny(path, options.perf002_allowlist);
  const bool sim_visible = category == FileCategory::kSrc || category == FileCategory::kBench;

  std::vector<Finding> findings;
  const auto add = [&](int line, const std::string& rule, std::string message) {
    const auto it = lx.suppressions.find(line);
    if (it != lx.suppressions.end()) {
      const Suppression& s = it->second;
      // Accept both NOLINT(perfiso-DET-003) and NOLINT(DET-003).
      const std::string bare = rule.rfind("perfiso-", 0) == 0 ? rule.substr(8) : rule;
      if (s.all || s.rules.count(rule) != 0 || s.rules.count(bare) != 0) {
        return;
      }
    }
    findings.push_back(Finding{path, line, rule, std::move(message)});
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) {
      continue;
    }
    // DET-001: wall-clock reads. Clock type identifiers are flagged anywhere
    // (aliasing `using Clock = std::chrono::steady_clock` must not launder
    // the read); time() only as a free call so `e.time` stays quiet.
    if (!det001_allowed) {
      if (kClockIdents.count(t.text) != 0) {
        add(t.line, "perfiso-DET-001",
            "wall-clock source '" + t.text +
                "' — simulated time must come from Simulator::Now(); real-time "
                "measurement belongs in the bench harness allowlist");
      } else if (t.text == "time" && IsFreeCall(toks, i)) {
        add(t.line, "perfiso-DET-001",
            "wall-clock call 'time()' — simulated time must come from Simulator::Now()");
      }
    }
    // DET-002: ad-hoc randomness.
    if (!det002_allowed) {
      if (kRngIdents.count(t.text) != 0) {
        add(t.line, "perfiso-DET-002",
            "ad-hoc randomness '" + t.text +
                "' — use a seeded perfiso::Rng (src/util/rng.h) so runs replay "
                "bit-identically");
      } else if ((t.text == "rand" || t.text == "srand") && IsFreeCall(toks, i)) {
        add(t.line, "perfiso-DET-002",
            "ad-hoc randomness '" + t.text +
                "()' — use a seeded perfiso::Rng (src/util/rng.h)");
      }
    }
    // DET-003: hash containers in simulation-visible code.
    if (sim_visible && kUnorderedIdents.count(t.text) != 0) {
      add(t.line, "perfiso-DET-003",
          "'std::" + t.text +
              "' in simulation-visible code — hash-seed iteration order varies "
              "across runs; use std::map/std::set or an index-keyed vector");
    }
    // PERF-002: std::function outside the built-once allowlist.
    if (perf002_applies && t.text == "function" && PrecededByStd(toks, i)) {
      add(t.line, "perfiso-PERF-002",
          "'std::function' in src/ — a capture over 16 bytes allocates per "
          "construction and copy; per-request callbacks use InlineFn "
          "(src/util/inline_fn.h), and std::function is kept to the built-once "
          "allowlist");
    }
    // DET-004: ordered containers keyed by raw pointer value.
    if (kOrderedByKey.count(t.text) != 0 && PrecededByStd(toks, i) && i + 1 < toks.size() &&
        toks[i + 1].text == "<") {
      int depth = 1;
      const Token* last = nullptr;  // last token of the first template argument
      for (size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
        const std::string& p = toks[j].text;
        if (p == "<") {
          ++depth;
        } else if (p == ">") {
          --depth;
          if (depth == 0) {
            break;
          }
        } else if (p == "," && depth == 1) {
          break;
        }
        last = &toks[j];
      }
      if (last != nullptr && last->text == "*") {
        add(t.line, "perfiso-DET-004",
            "'std::" + t.text +
                "' keyed by raw pointer value — address order differs across "
                "runs; key by a stable id (or supply a by-value comparator and "
                "suppress with rationale)");
      }
    }
    // OBS-001: names passed to the observability sinks must be single
    // lowercase dot-separated string literals. Sinks are always reached as
    // member calls (registry.Add*, tracer->Instant/Span/BeginTrace), which
    // keeps their declarations and definitions out of scope.
    if (const auto sink = kObsSinkNameArg.find(t.text);
        sink != kObsSinkNameArg.end() && i >= 1 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const std::vector<const Token*> arg = CallArgument(toks, i + 1, sink->second);
      const bool single_literal = arg.size() == 1 && arg[0]->kind == Token::Kind::kString;
      if (!single_literal || !IsObsMetricName(arg[0]->text)) {
        add(t.line, "perfiso-OBS-001",
            "name argument of '" + t.text +
                "' must be a single lowercase dot-separated string literal "
                "(\"layer.event\") — hot paths never build metric/span names, "
                "and the export vocabulary stays greppable");
      }
    }
  }

  // FLT-001 pass: retries must be bounded and backed off. Two shapes:
  //  (a) ScheduleAfter(...) arming something retry-named with no
  //      backoff-derived delay anywhere nearby — a fixed-delay retry hammers
  //      a degraded resource at line rate instead of yielding to it;
  //  (b) a while/for loop whose header names a retry variable but carries no
  //      bound comparison — an unbounded retry loop can spin forever when the
  //      fault never clears. ScheduleOrTighten is exempt (the disk/net bucket
  //      wakes reuse a retry_event_ slot but are paced by the resource model,
  //      not a retry policy), as are range-for loops (bounded by their
  //      container).
  {
    std::set<int> retry_lines;    // lines holding a retry-named identifier
    std::set<int> backoff_lines;  // lines holding a backoff-named identifier
    for (const Token& t : toks) {
      if (t.kind != Token::Kind::kIdent) {
        continue;
      }
      if (IdentContains(t.text, "retry")) {
        retry_lines.insert(t.line);
      }
      if (IdentContains(t.text, "backoff")) {
        backoff_lines.insert(t.line);
      }
    }
    const auto any_in = [](const std::set<int>& lines, int lo, int hi) {
      const auto it = lines.lower_bound(lo);
      return it != lines.end() && *it <= hi;
    };
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent || i + 1 >= toks.size() || toks[i + 1].text != "(") {
        continue;
      }
      // (a) Retry arming without backoff. "Retry-named" means an identifier
      // containing "retry" on the call's own line or the two above (the
      // handle being assigned, or the callback being armed); "nearby" backoff
      // evidence is any backoff-named identifier within ±20 lines, which
      // keeps a ComputeBackoff() a few statements earlier in scope.
      if (t.text == "ScheduleAfter") {
        if (any_in(retry_lines, t.line - 2, t.line) &&
            !any_in(backoff_lines, t.line - 20, t.line + 20)) {
          add(t.line, "perfiso-FLT-001",
              "retry armed via ScheduleAfter with no backoff in sight — "
              "re-issues must use ComputeBackoff (src/fault/retry.h) so a "
              "degraded resource is not hammered at a fixed cadence");
        }
        continue;
      }
      // (b) Unbounded retry loop. Scan the loop header: a retry-named
      // identifier with no `<`/`>` bound comparison is flagged; a top-level
      // `:` marks a range-for, bounded by its container.
      if (t.text == "while" || t.text == "for") {
        int depth = 1;
        bool names_retry = false;
        bool has_bound = false;
        bool range_for = false;
        for (size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
          const Token& h = toks[j];
          if (h.text == "(") {
            ++depth;
          } else if (h.text == ")") {
            --depth;
          } else if (h.kind == Token::Kind::kIdent) {
            names_retry = names_retry || IdentContains(h.text, "retry");
          } else if (h.kind == Token::Kind::kPunct) {
            has_bound = has_bound || h.text == "<" || h.text == ">";
            range_for = range_for || (depth == 1 && h.text == ":");
          }
        }
        if (names_retry && !has_bound && !range_for) {
          add(t.line, "perfiso-FLT-001",
              "retry loop with no bound in its header — cap attempts "
              "(RetryPolicy::max_attempts) so a fault that never clears "
              "cannot spin the simulation forever");
        }
      }
    }
  }

  // PERF-001 pass: re-arming a held handle inside a loop body. The shape
  //
  //   handle = sim->Schedule(...);       // or ScheduleAfter
  //
  // in a loop allocates, links, and (next trip) orphans a fresh event record
  // per iteration, when Reschedule(handle, when) relinks the already-armed
  // record in O(1) on the timing wheel — or ScheduleOrTighten when the
  // handle may be stale. Only a *bare* identifier target is flagged:
  // `slots[i] = ...` and `obj.h = ...` arm one event per distinct owner, and
  // `auto h = ...` declares a fresh handle. Lambda bodies reset the loop
  // context (a callback defined inside a loop does not *run* per iteration),
  // as does any other non-control brace (class, function, initializer).
  if (sim_visible) {
    static const std::set<std::string> kControlBraces = {
        "for", "while", "do", "if", "else", "switch", "case", "default", "try", "catch",
    };
    int loop_depth = 0;
    int paren = 0;
    std::vector<std::pair<int, int>> saved;  // per '{': (loop_depth, paren)
    std::vector<const Token*> stmt;
    const auto inspect = [&](std::vector<const Token*> span) {
      bool in_loop = loop_depth > 0;
      // Peel control headers off the front: a peeled for/while/do makes the
      // remainder a (braceless) loop body even outside any braced loop.
      while (!span.empty()) {
        const std::string& head = span[0]->text;
        if ((head == "for" || head == "while" || head == "if") && span.size() > 1 &&
            span[1]->text == "(") {
          int depth = 0;
          size_t j = 1;
          for (; j < span.size(); ++j) {
            if (span[j]->text == "(") {
              ++depth;
            } else if (span[j]->text == ")" && --depth == 0) {
              ++j;
              break;
            }
          }
          if (depth != 0) {
            return;  // header runs past the end of this fragment
          }
          in_loop = in_loop || head != "if";
          span.erase(span.begin(), span.begin() + static_cast<std::ptrdiff_t>(j));
        } else if (head == "else" || head == "do") {
          in_loop = in_loop || head == "do";
          span.erase(span.begin());
        } else {
          break;
        }
      }
      if (!in_loop || span.size() < 4 || span[0]->kind != Token::Kind::kIdent ||
          span[1]->text != "=" || span[2]->text == "=") {
        return;  // not `bare_ident = ...` (the `==` probe: two '=' tokens)
      }
      for (size_t k = 2; k + 1 < span.size(); ++k) {
        if (span[k]->kind == Token::Kind::kIdent &&
            (span[k]->text == "Schedule" || span[k]->text == "ScheduleAfter") &&
            span[k + 1]->text == "(") {
          add(span[k]->line, "perfiso-PERF-001",
              "'" + span[k]->text + "' re-arms '" + span[0]->text +
                  "' every loop iteration — Reschedule(" + span[0]->text +
                  ", when) relinks the pending event in O(1) instead of paying "
                  "allocate + sift churn per trip (ScheduleOrTighten if the "
                  "handle may be stale; suppress if each iteration truly needs "
                  "a distinct event)");
          return;
        }
      }
    };
    for (const Token& t : toks) {
      if (t.kind == Token::Kind::kPunct && t.text == "(") {
        ++paren;
        stmt.push_back(&t);
      } else if (t.kind == Token::Kind::kPunct && t.text == ")") {
        paren = std::max(paren - 1, 0);
        stmt.push_back(&t);
      } else if (t.kind == Token::Kind::kPunct && t.text == ";" && paren == 0) {
        inspect(stmt);
        stmt.clear();
      } else if (t.kind == Token::Kind::kPunct && t.text == "{") {
        inspect(stmt);  // catches `h = Schedule(t, [cap] {` before the split
        saved.emplace_back(loop_depth, paren);
        if (!stmt.empty() && kControlBraces.count(stmt[0]->text) == 0) {
          loop_depth = 0;  // lambda / class / function / init-list barrier
        } else if (!stmt.empty() &&
                   (stmt[0]->text == "for" || stmt[0]->text == "while" || stmt[0]->text == "do")) {
          ++loop_depth;
        }
        paren = 0;
        stmt.clear();
      } else if (t.kind == Token::Kind::kPunct && t.text == "}") {
        if (!saved.empty()) {
          loop_depth = saved.back().first;
          paren = saved.back().second;
          saved.pop_back();
        }
        stmt.clear();
      } else {
        stmt.push_back(&t);
      }
    }
    inspect(stmt);
  }

  // LIFE-001 pass: class scopes, members, destructors / Cancel members.
  {
    std::vector<ClassScope> stack;
    std::vector<const Token*> stmt;
    const auto current_class = [&]() -> ClassScope* {
      return (!stack.empty() && stack.back().is_class) ? &stack.back() : nullptr;
    };
    const auto finalize = [&](const ClassScope& scope) {
      if (!scope.is_class || scope.has_dtor || scope.has_cancel) {
        return;
      }
      for (const auto& [line, name] : scope.handle_members) {
        add(line, "perfiso-LIFE-001",
            "EventHandle member '" + name + "' but class '" + scope.name +
                "' has no destructor and no Cancel* member — an armed event can "
                "outlive its owner; cancel it in a destructor (or suppress with "
                "a note naming the owner of the lifecycle)");
      }
    };
    for (const Token& t : toks) {
      if (t.kind == Token::Kind::kString) {
        continue;  // "EventHandle" in a log message is not a member
      }
      if (t.text == ";") {
        if (ClassScope* scope = current_class()) {
          InspectStatement(stmt, scope);
        }
        stmt.clear();
      } else if (t.text == "{") {
        // Class header iff the statement names a class/struct (not an enum
        // class, not a template parameter list of a function — functions
        // carry a '(' after the keyword).
        ClassScope scope;
        for (size_t k = 0; k + 1 < stmt.size(); ++k) {
          const bool keyword = stmt[k]->text == "class" || stmt[k]->text == "struct";
          const bool enum_prefixed = k > 0 && stmt[k - 1]->text == "enum";
          if (keyword && !enum_prefixed && stmt[k + 1]->kind == Token::Kind::kIdent) {
            bool paren_after = false;
            for (size_t m = k + 1; m < stmt.size(); ++m) {
              if (stmt[m]->text == "(") {
                paren_after = true;
                break;
              }
            }
            if (!paren_after) {
              // Follow a qualified name (struct Outer::Inner { ... }) to its
              // last component so `~Inner` matches as the destructor.
              size_t name_at = k + 1;
              while (name_at + 2 < stmt.size() && stmt[name_at + 1]->text == "::" &&
                     stmt[name_at + 2]->kind == Token::Kind::kIdent) {
                name_at += 2;
              }
              scope.is_class = true;
              scope.name = stmt[name_at]->text;
            }
          }
        }
        if (ClassScope* enclosing = current_class()) {
          InspectStatement(stmt, enclosing);  // dtor/Cancel headers end in '{'
        }
        stack.push_back(scope);
        stmt.clear();
      } else if (t.text == "}") {
        if (!stack.empty()) {
          finalize(stack.back());
          stack.pop_back();
        }
        stmt.clear();
      } else {
        stmt.push_back(&t);
      }
    }
    // Unbalanced braces (truncated input): still report what was collected.
    for (const ClassScope& scope : stack) {
      finalize(scope);
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return findings;
}

std::vector<Finding> LintFile(const std::string& path, const LintOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "perfiso-IO", "cannot read file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LintSource(path, buf.str(), options);
}

std::string ToJson(const std::vector<Finding>& findings) {
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\u%04x", c);
            out += hex;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "{\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "{\"file\":\"" << escape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << escape(f.rule) << "\",\"message\":\"" << escape(f.message) << "\"}";
  }
  out << "],\"count\":" << findings.size() << "}";
  return out.str();
}

}  // namespace lint
}  // namespace perfiso
