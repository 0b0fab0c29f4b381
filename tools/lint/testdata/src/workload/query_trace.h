// Allowlist fixture: the load clients' SubmitFn is built once per client, so
// std::function is sanctioned in this file.
#include <functional>

namespace fixture {

struct QueryWork;
using SubmitFn = std::function<void(const QueryWork&, long)>;

}  // namespace fixture
