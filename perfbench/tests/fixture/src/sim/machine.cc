// Mapper fixture: an out-of-line function that inlines a cpu_set.h helper
// and calls into libc.
#include <cstring>

#include "src/util/cpu_set.h"

extern "C" __attribute__((noinline)) int FixtureMachineTick(unsigned v, const char* s) {
  return FixtureCount(v) + static_cast<int>(std::strlen(s));
}
