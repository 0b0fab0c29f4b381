// SimPlatform: Platform implementation backed by a SimMachine.
#ifndef PERFISO_SRC_PLATFORM_SIM_PLATFORM_H_
#define PERFISO_SRC_PLATFORM_SIM_PLATFORM_H_

#include <optional>
#include <vector>

#include "src/disk/io_scheduler.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/util/token_bucket.h"

namespace perfiso {

class SimPlatform : public Platform {
 public:
  // `hdd_scheduler` may be null when the experiment has no shared disk.
  SimPlatform(SimMachine* machine, IoScheduler* hdd_scheduler);

  // Registers a job as part of the secondary tenant; affinity/rate/kill
  // operations apply to every registered job.
  void AddSecondaryJob(JobId job);

  // The egress limiter cluster links consult for secondary flows; empty until
  // SetEgressRateCap installs one.
  std::optional<TokenBucket>& egress_bucket() { return egress_bucket_; }

  // Platform:
  int NumCores() const override { return machine_->NumCores(); }
  SimTime NowNs() override { return machine_->sim()->Now(); }
  CpuSet IdleCores() override { return machine_->IdleMask(); }
  bool ArmIdleWatch(int lo, int hi, bool* flag) override {
    return machine_->ArmIdleWatch(lo, hi, flag);
  }
  void DisarmIdleWatch() override { machine_->DisarmIdleWatch(); }
  Status SetSecondaryAffinity(const CpuSet& mask) override;
  Status SetSecondaryCpuRateCap(double fraction) override;
  StatusOr<int64_t> FreeMemoryBytes() override { return machine_->FreeMemoryBytes(); }
  Status KillSecondary() override;
  Status SetIoPriority(int owner, int priority) override;
  Status SetIoIopsCap(int owner, double iops) override;
  Status SetIoBandwidthCap(int owner, double bytes_per_sec) override;
  StatusOr<int64_t> IoOpsCompleted(int owner) override;
  Status SetEgressRateCap(double bytes_per_sec) override;

 private:
  SimMachine* machine_;
  IoScheduler* hdd_scheduler_;
  std::vector<JobId> secondary_jobs_;
  std::optional<TokenBucket> egress_bucket_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PLATFORM_SIM_PLATFORM_H_
