#include "sampler.h"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {
namespace {

constexpr int kMaxFrames = 16;

struct Sample {
  int depth = 0;
  uintptr_t pc[kMaxFrames] = {};
};

// Handler-visible state. Only the handler writes `g_count`/`g_dropped` while
// the timer is armed; the process is single-threaded, so plain sig_atomic-
// sized stores are enough.
std::vector<Sample>* g_samples = nullptr;
volatile size_t g_count = 0;
volatile size_t g_dropped = 0;

// The main binary's load bias and executable address range.
uintptr_t g_bias = 0;
uintptr_t g_text_lo = 0;
uintptr_t g_text_hi = 0;

uintptr_t InterruptedPc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void OnProfSignal(int /*signo*/, siginfo_t* /*info*/, void* context) {
  const int saved_errno = errno;
  const size_t i = g_count;
  if (i >= g_samples->size()) {
    g_dropped = g_dropped + 1;
    errno = saved_errno;
    return;
  }
  Sample& sample = (*g_samples)[i];
  const uintptr_t leaf = InterruptedPc(context);
  // The unwinder walks through the handler and the kernel's signal frame;
  // the interrupted PC appears verbatim, and its callers follow it.
  void* frames[kMaxFrames + 8];
  const int n = backtrace(frames, kMaxFrames + 8);
  sample.pc[0] = leaf;
  sample.depth = 1;
  for (int j = 0; j < n; ++j) {
    if (reinterpret_cast<uintptr_t>(frames[j]) != leaf) {
      continue;
    }
    for (int k = j + 1; k < n && sample.depth < kMaxFrames; ++k) {
      sample.pc[sample.depth++] = reinterpret_cast<uintptr_t>(frames[k]);
    }
    break;
  }
  g_count = i + 1;
  errno = saved_errno;
}

int FindMainBinary(dl_phdr_info* info, size_t /*size*/, void* /*data*/) {
  // The first object dl_iterate_phdr reports is the executable itself.
  g_bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) {
      continue;
    }
    const uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    const uintptr_t hi = lo + ph.p_memsz;
    if (g_text_hi == 0 || lo < g_text_lo) g_text_lo = lo;
    if (hi > g_text_hi) g_text_hi = hi;
  }
  return 1;  // stop after the executable
}

}  // namespace

bool StartSampling(size_t max_samples, int interval_us) {
  static std::vector<Sample> buffer;
  buffer.assign(max_samples, Sample{});
  g_samples = &buffer;
  g_count = 0;
  g_dropped = 0;
  g_text_lo = g_text_hi = 0;
  dl_iterate_phdr(FindMainBinary, nullptr);

  // backtrace() loads the unwinder lazily on first use; do that here, not in
  // the handler.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction action = {};
  action.sa_sigaction = OnProfSignal;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    return false;
  }
  itimerval timer = {};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  return setitimer(ITIMER_PROF, &timer, nullptr) == 0;
}

void StopSampling() {
  itimerval timer = {};
  setitimer(ITIMER_PROF, &timer, nullptr);
  signal(SIGPROF, SIG_IGN);
}

size_t SamplesTaken() { return g_count; }
size_t SamplesDropped() { return g_dropped; }

bool WriteSamples(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < g_count; ++i) {
    const Sample& sample = (*g_samples)[i];
    for (int d = 0; d < sample.depth; ++d) {
      const uintptr_t pc = sample.pc[d];
      if (pc >= g_text_lo && pc < g_text_hi) {
        std::fprintf(f, "%sb%llx", d == 0 ? "" : " ",
                     static_cast<unsigned long long>(pc - g_bias));
      } else {
        std::fprintf(f, "%sx", d == 0 ? "" : " ");
      }
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
