// In-process SIGPROF sampler for the benchmark's traced run.
//
// While running, ITIMER_PROF interrupts the process every `interval_us` of
// CPU time; the handler records the interrupted PC plus a short backtrace into
// a buffer allocated up front (no allocation and no locks on the sampling
// path). After the run, WriteSamples() dumps one line per sample: the leaf PC
// first, then its callers, each frame either `b<hex>` — an address inside the
// main binary relative to its load base, ready for `addr2line -e <binary>` —
// or `x` for a frame outside it (libc, the allocator, the dynamic loader, the
// vDSO). perfbench/layers.py resolves the lines to src/ modules.
//
// The sampler is process-global (a signal handler has no other way to find
// its buffer): one sampler runs at a time.
#ifndef PERFBENCH_SAMPLER_H_
#define PERFBENCH_SAMPLER_H_

#include <cstddef>
#include <string>

namespace perfbench {

// Allocates room for `max_samples`, installs the handler and arms the timer.
// Returns false (and samples nothing) if the handler or timer cannot be set.
bool StartSampling(size_t max_samples, int interval_us);

// Disarms the timer; samples stay readable until the next StartSampling.
void StopSampling();

size_t SamplesTaken();
// Samples lost because the buffer was full.
size_t SamplesDropped();

// Writes the samples in the format above; false on an I/O error.
bool WriteSamples(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLER_H_
