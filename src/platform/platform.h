// Platform: the OS surface PerfIso is written against.
//
// The paper's implementation uses Windows primitives (the idle-core bitmask
// system call, Job Objects for affinity and CPU-rate control, per-device I/O
// statistics). The controller only needs this narrow interface, so it runs
// unchanged on the simulator (SimPlatform) and on a real Linux host
// (LinuxPlatform, using sched_setaffinity(2) and /proc sampling).
//
// Per §4, every secondary-tenant process lives in a unified job object; the
// platform exposes them collectively as "the secondary".
#ifndef PERFISO_SRC_PLATFORM_PLATFORM_H_
#define PERFISO_SRC_PLATFORM_PLATFORM_H_

#include <cstdint>

#include "src/util/cpu_set.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace perfiso {

class Platform {
 public:
  virtual ~Platform() = default;

  virtual int NumCores() const = 0;

  // Monotonic time in nanoseconds (simulated or real).
  virtual SimTime NowNs() = 0;

  // The low-latency idle-core query of §3.1.1: a bitmask with the bits of
  // currently-idle logical CPUs set.
  virtual CpuSet IdleCores() = 0;

  // Quiet-poll support (optional): arms a one-shot watch that sets `*flag`
  // and clears it the moment the idle-core count leaves [lo, hi], then
  // disarms. Returns false when nothing was armed — the platform cannot
  // watch (the default; LinuxPlatform), or the count is already outside the
  // range — and the caller must keep reading IdleCores().
  virtual bool ArmIdleWatch(int /*lo*/, int /*hi*/, bool* /*flag*/) { return false; }
  // Clears the armed flag, if any, and disarms.
  virtual void DisarmIdleWatch() {}

  // Restricts all secondary-tenant processes to `mask`. An empty mask
  // suspends the secondary entirely (S = 0).
  virtual Status SetSecondaryAffinity(const CpuSet& mask) = 0;

  // Hard-caps the secondary to `fraction` of total machine CPU (<= 0 clears).
  virtual Status SetSecondaryCpuRateCap(double fraction) = 0;

  // Free physical memory (the watchdog kills the secondary when this drops
  // below the configured floor, §3.2).
  virtual StatusOr<int64_t> FreeMemoryBytes() = 0;

  // Kills all secondary-tenant processes.
  virtual Status KillSecondary() = 0;

  // --- I/O throttling knobs (may be unsupported on a platform) --------------
  virtual Status SetIoPriority(int owner, int priority) = 0;
  virtual Status SetIoIopsCap(int owner, double iops) = 0;
  virtual Status SetIoBandwidthCap(int owner, double bytes_per_sec) = 0;
  // Cumulative completed operations for an owner (the controller derives
  // IOPS from deltas and smooths with a moving average, §4.1).
  virtual StatusOr<int64_t> IoOpsCompleted(int owner) = 0;

  // --- Egress network ---------------------------------------------------------
  // Throttles secondary outbound traffic (<= 0 clears), §3.2.
  virtual Status SetEgressRateCap(double bytes_per_sec) = 0;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PLATFORM_PLATFORM_H_
