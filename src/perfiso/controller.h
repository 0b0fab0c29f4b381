// PerfIsoController: the user-mode service of §4.
//
// Polling and updating are split: utilization is polled in a tight loop, but
// control knobs are only touched when the measured state demands a change
// ("constantly updating certain settings can become harmful", §4.1). The
// controller is platform-agnostic — the caller drives Poll(), either from a
// simulator PeriodicTask or from a real-time thread.
//
// Quiet polls. Most polls change nothing: the blind policy's decision is a
// no-op for a whole range of idle counts (BlindIsolationPolicy::QuietRange).
// After a no-op decision the controller arms the platform's idle watch on
// that range and goes quiet; until the watch fires (clearing `quiet_`), a
// poll still ticks, counts and runs its memory check, but skips the
// IdleCores() read and the decision, whose outcome is known. Every poll tick
// stays where it was, so results are identical to polling in full. A
// platform that cannot watch (LinuxPlatform) is never quiet. DESIGN.md,
// "Quiet polls", has the derivation and why the ticks themselves stay.
#ifndef PERFISO_SRC_PERFISO_CONTROLLER_H_
#define PERFISO_SRC_PERFISO_CONTROLLER_H_

#include <memory>
#include <optional>

#include "src/obs/trace.h"
#include "src/perfiso/io_throttler.h"
#include "src/perfiso/perfiso_config.h"
#include "src/perfiso/policy.h"
#include "src/platform/platform.h"
#include "src/sim/simulator.h"

namespace perfiso {

class PerfIsoController {
 public:
  PerfIsoController(Platform* platform, const PerfIsoConfig& config);

  // Disarms the idle watch, which points at this controller.
  ~PerfIsoController();

  PerfIsoController(const PerfIsoController&) = delete;
  PerfIsoController& operator=(const PerfIsoController&) = delete;

  // Applies static settings (initial affinity/caps, I/O limits, egress).
  // Must be called once before polling.
  Status Initialize();

  // One control iteration (CPU). Cheap when nothing changed.
  void Poll();

  // One I/O-throttler iteration; drive at config.io_poll_interval.
  void PollIo();

  // Convenience: arms periodic tasks on a simulator for both loops.
  void AttachToSimulator(Simulator* sim);

  // Registers a "perfiso" track under `process` (the machine the controller
  // manages); control decisions — affinity updates, throttler promotions and
  // demotions, memory kills — appear there as instants.
  void EnableTracing(Tracer* tracer, int process);

  struct Stats {
    int64_t polls = 0;
    int64_t affinity_updates = 0;
    int64_t rate_updates = 0;
    int64_t memory_checks = 0;
    int64_t memory_kills = 0;
    int64_t io_polls = 0;
  };
  const Stats& stats() const { return stats_; }
  int secondary_cores() const;
  // True while polls skip the decision. The platform's idle count is then
  // inside QuietRange() at every instant.
  bool quiet() const { return quiet_; }
  // The blind policy's current no-op range (empty without a blind policy).
  BlindIsolationPolicy::IdleRange QuietRange() const;
  const IoThrottler* io_throttler() const { return io_throttler_.get(); }

 private:
  Status ApplyCpuMode();
  void CheckMemory();
  // Arms the idle watch on the policy's quiet range after a no-op decision.
  void EnterQuiet();
  void SimSanCheckQuiet();

  Platform* platform_;
  PerfIsoConfig config_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  // What a quiet Poll() touches, kept together: quiet_ (cleared by the
  // platform's idle watch), the polls left until the next memory check
  // (1..memory_check_every_n_polls once initialized; 0 before), and
  // stats_.polls.
  bool quiet_ = false;
  int memory_countdown_ = 0;
  Stats stats_;
  std::optional<BlindIsolationPolicy> blind_policy_;
  std::unique_ptr<IoThrottler> io_throttler_;
  bool secondary_killed_ = false;
  std::unique_ptr<PeriodicTask> cpu_task_;
  std::unique_ptr<PeriodicTask> io_task_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PERFISO_CONTROLLER_H_
