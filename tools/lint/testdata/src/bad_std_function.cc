// PERF-002 fixture: std::function in src/ outside the built-once allowlist,
// next to the shapes that must stay quiet (InlineFn, mentions in comments
// and strings, a suppressed line).
#include <functional>

#include "src/util/inline_fn.h"

namespace fixture {

// Violation (a): a per-request callback type.
using DoneFn = std::function<void(long)>;

// Violation (b): a member.
struct Request {
  std::function<void(long)> on_complete;
};

// Violation (c): a parameter.
void Submit(std::function<void()> done);

// Clean: the in-place callable; "std::function" in a string; std::function
// in a comment.
using InlineDoneFn = perfiso::InlineFn<void(long)>;
const char* kNote = "std::function";

// Suppressed with a rationale: built once at start-up.
using StartupHook = std::function<void()>;  // NOLINT(perfiso-PERF-002)

}  // namespace fixture
