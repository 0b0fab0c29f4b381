#include "src/platform/sim_platform.h"

#include <algorithm>
#include <cassert>

namespace perfiso {

SimPlatform::SimPlatform(SimMachine* machine, IoScheduler* hdd_scheduler)
    : machine_(machine), hdd_scheduler_(hdd_scheduler) {
  assert(machine_ != nullptr);
}

void SimPlatform::AddSecondaryJob(JobId job) {
  assert(job.valid());
  secondary_jobs_.push_back(job);
}

Status SimPlatform::SetSecondaryAffinity(const CpuSet& mask) {
  for (JobId job : secondary_jobs_) {
    if (mask.Empty()) {
      PERFISO_RETURN_IF_ERROR(machine_->SetJobSuspended(job, true));
      continue;
    }
    PERFISO_RETURN_IF_ERROR(machine_->SetJobAffinity(job, mask));
    PERFISO_RETURN_IF_ERROR(machine_->SetJobSuspended(job, false));
  }
  return OkStatus();
}

Status SimPlatform::SetSecondaryCpuRateCap(double fraction) {
  for (JobId job : secondary_jobs_) {
    PERFISO_RETURN_IF_ERROR(machine_->SetJobCpuRateCap(job, fraction));
  }
  return OkStatus();
}

Status SimPlatform::KillSecondary() {
  for (JobId job : secondary_jobs_) {
    PERFISO_RETURN_IF_ERROR(machine_->KillJob(job));
  }
  return OkStatus();
}

Status SimPlatform::SetIoPriority(int owner, int priority) {
  if (hdd_scheduler_ == nullptr) {
    return UnimplementedError("no shared disk scheduler on this machine");
  }
  return hdd_scheduler_->SetPriority(owner, priority);
}

Status SimPlatform::SetIoIopsCap(int owner, double iops) {
  if (hdd_scheduler_ == nullptr) {
    return UnimplementedError("no shared disk scheduler on this machine");
  }
  return hdd_scheduler_->SetIopsCap(owner, iops);
}

Status SimPlatform::SetIoBandwidthCap(int owner, double bytes_per_sec) {
  if (hdd_scheduler_ == nullptr) {
    return UnimplementedError("no shared disk scheduler on this machine");
  }
  return hdd_scheduler_->SetBandwidthCap(owner, bytes_per_sec);
}

StatusOr<int64_t> SimPlatform::IoOpsCompleted(int owner) {
  if (hdd_scheduler_ == nullptr) {
    return UnimplementedError("no shared disk scheduler on this machine");
  }
  return hdd_scheduler_->Stats(owner).ops;
}

Status SimPlatform::SetEgressRateCap(double bytes_per_sec) {
  if (bytes_per_sec <= 0) {
    egress_bucket_.reset();
  } else {
    // Bound the burst so large caps cannot bank multi-second line-rate
    // bursts: 250 ms of credit, at most 4 MB (a handful of bulk blocks).
    const double burst = std::min(bytes_per_sec / 4, 4.0 * 1024 * 1024);
    egress_bucket_.emplace(bytes_per_sec, burst);
  }
  return OkStatus();
}

}  // namespace perfiso
