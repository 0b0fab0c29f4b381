#include "src/perfiso/controller.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/util/logging.h"

namespace perfiso {

PerfIsoController::PerfIsoController(Platform* platform, const PerfIsoConfig& config)
    : platform_(platform), config_(config) {
  assert(platform_ != nullptr);
}

PerfIsoController::~PerfIsoController() {
  if (quiet_) {
    platform_->DisarmIdleWatch();
  }
}

Status PerfIsoController::Initialize() {
  PERFISO_RETURN_IF_ERROR(config_.Validate(platform_->NumCores()));
  memory_countdown_ = config_.memory_check_every_n_polls;
  if (!config_.io_limits.empty()) {
    io_throttler_ = std::make_unique<IoThrottler>(
        platform_, config_.io_limits,
        IoThrottler::Options{config_.io_window_polls, 0.5, 0.0});
    if (tracer_ != nullptr) {
      io_throttler_->EnableTracing(tracer_, track_);
    }
    // Static I/O limits are configuration, not dynamic control: a platform
    // that cannot apply them logs a warning and CPU isolation still comes up.
    Status io_status = io_throttler_->ApplyStaticLimits();
    if (!io_status.ok()) {
      PERFISO_LOG(kWarning) << "perfiso: static I/O limits not applied: "
                            << io_status.ToString();
    }
  }
  if (config_.egress_rate_cap_bps > 0) {
    // Like the static I/O limits above: platforms without an egress shaper
    // (LinuxPlatform needs tc/HTB privileges) degrade to a logged warning
    // instead of failing the whole controller bring-up.
    Status egress = platform_->SetEgressRateCap(config_.egress_rate_cap_bps);
    if (!egress.ok()) {
      PERFISO_LOG(kWarning) << "perfiso: egress cap not applied: " << egress.ToString();
    }
  }
  return ApplyCpuMode();
}

Status PerfIsoController::ApplyCpuMode() {
  const int cores = platform_->NumCores();
  switch (config_.cpu_mode) {
    case CpuIsolationMode::kNone:
      return OkStatus();
    case CpuIsolationMode::kBlindIsolation: {
      blind_policy_.emplace(config_.blind, cores);
      const CpuSet mask = BuildPlacementMask(config_.blind.placement,
                                             blind_policy_->secondary_cores(), cores);
      ++stats_.affinity_updates;
      return platform_->SetSecondaryAffinity(mask);
    }
    case CpuIsolationMode::kStaticCores: {
      const CpuSet mask = BuildPlacementMask(config_.blind.placement,
                                             config_.static_secondary_cores, cores);
      ++stats_.affinity_updates;
      return platform_->SetSecondaryAffinity(mask);
    }
    case CpuIsolationMode::kCpuRateCap:
      ++stats_.rate_updates;
      return platform_->SetSecondaryCpuRateCap(config_.cpu_rate_cap);
  }
  return InternalError("unreachable cpu mode");
}

void PerfIsoController::Poll() {
  assert(memory_countdown_ > 0 && "Poll() before Initialize()");
  ++stats_.polls;
  if (quiet_) {
    SimSanCheckQuiet();
  } else if (blind_policy_.has_value()) {
    std::optional<CpuSet> update = blind_policy_->Decide(platform_->IdleCores().Count());
    if (!update.has_value()) {
      EnterQuiet();
    } else {
      ++stats_.affinity_updates;
      if (tracer_ != nullptr) {
        tracer_->Instant("perfiso.affinity.update", track_, platform_->NowNs());
      }
      Status status = platform_->SetSecondaryAffinity(*update);
      if (!status.ok()) {
        PERFISO_LOG(kWarning) << "perfiso: affinity update failed: " << status.ToString();
      }
    }
  }
  if (--memory_countdown_ == 0) {
    memory_countdown_ = config_.memory_check_every_n_polls;
    CheckMemory();
  }
}

void PerfIsoController::EnterQuiet() {
  const BlindIsolationPolicy::IdleRange range = blind_policy_->QuietRange();
  if (!range.Empty()) {
    quiet_ = platform_->ArmIdleWatch(range.lo, range.hi, &quiet_);
  }
}

// A quiet poll skips a decision that the idle watch guarantees is a no-op.
// SimSan re-derives it: the count is inside the range and a copy of the
// policy decides nothing.
void PerfIsoController::SimSanCheckQuiet() {
#ifdef PERFISO_SIMSAN
  if (!blind_policy_.has_value()) {
    std::fprintf(stderr, "SimSan: quiet-poll: quiet without a blind policy\n");
    std::abort();
  }
  const int idle = platform_->IdleCores().Count();
  const BlindIsolationPolicy::IdleRange range = blind_policy_->QuietRange();
  BlindIsolationPolicy probe = *blind_policy_;
  if (!range.Contains(idle) || probe.Decide(idle).has_value()) {
    std::fprintf(stderr, "SimSan: quiet-poll: idle count %d, quiet range [%d, %d]\n", idle,
                 range.lo, range.hi);
    std::abort();
  }
#endif
}

void PerfIsoController::CheckMemory() {
  ++stats_.memory_checks;
  if (secondary_killed_ || config_.min_free_memory_bytes <= 0) {
    return;
  }
  auto free_bytes = platform_->FreeMemoryBytes();
  if (!free_bytes.ok()) {
    return;
  }
  if (*free_bytes < config_.min_free_memory_bytes) {
    PERFISO_LOG(kWarning) << "perfiso: free memory " << *free_bytes << " below floor "
                          << config_.min_free_memory_bytes << ", killing secondary";
    if (platform_->KillSecondary().ok()) {
      ++stats_.memory_kills;
      secondary_killed_ = true;
      if (tracer_ != nullptr) {
        tracer_->Instant("perfiso.memory.kill", track_, platform_->NowNs());
      }
    }
  }
}

void PerfIsoController::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, "perfiso");
  if (io_throttler_ != nullptr) {
    io_throttler_->EnableTracing(tracer, track_);
  }
}

void PerfIsoController::PollIo() {
  if (io_throttler_ == nullptr) {
    return;
  }
  ++stats_.io_polls;
  io_throttler_->Poll(platform_->NowNs());
}

void PerfIsoController::AttachToSimulator(Simulator* sim) {
  cpu_task_ = std::make_unique<PeriodicTask>(sim, sim->Now() + config_.poll_interval,
                                             config_.poll_interval,
                                             [this](SimTime) { Poll(); });
  io_task_ = std::make_unique<PeriodicTask>(sim, sim->Now() + config_.io_poll_interval,
                                            config_.io_poll_interval,
                                            [this](SimTime) { PollIo(); });
}

BlindIsolationPolicy::IdleRange PerfIsoController::QuietRange() const {
  return blind_policy_.has_value() ? blind_policy_->QuietRange()
                                   : BlindIsolationPolicy::IdleRange{};
}

int PerfIsoController::secondary_cores() const {
  if (blind_policy_.has_value()) {
    return blind_policy_->secondary_cores();
  }
  if (config_.cpu_mode == CpuIsolationMode::kStaticCores) {
    return config_.static_secondary_cores;
  }
  return platform_->NumCores();
}

}  // namespace perfiso
