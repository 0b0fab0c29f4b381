#include "src/cluster/index_node.h"

#include <cassert>

#include "src/workload/scenario.h"

namespace perfiso {

IndexNodeRig::IndexNodeRig(Simulator* sim, const IndexNodeOptions& options,
                           const std::string& name)
    : sim_(sim), rng_(options.seed) {
  machine_ = std::make_unique<SimMachine>(sim, options.machine, name);
  ssd_volume_ =
      std::make_unique<StripedVolume>(DiskSpec::Ssd(), options.ssd_drives, name + "-ssd");
  hdd_volume_ =
      std::make_unique<StripedVolume>(DiskSpec::Hdd(), options.hdd_drives, name + "-hdd");
  // Outstanding bounds: keep SSDs saturated (deep NCQ), keep HDD queues
  // shallow so priority decisions matter.
  ssd_sched_ = std::make_unique<IoScheduler>(sim, ssd_volume_.get(),
                                             options.ssd_drives * DiskSpec::Ssd().concurrency);
  hdd_sched_ = std::make_unique<IoScheduler>(sim, hdd_volume_.get(), options.hdd_drives);
  server_ = std::make_unique<IndexServer>(machine_.get(), ssd_sched_.get(), hdd_sched_.get(),
                                          options.indexserve, rng_.Next());
  secondary_job_ = machine_->CreateJob("secondary");
  platform_ = std::make_unique<SimPlatform>(machine_.get(), hdd_sched_.get());
  platform_->AddSecondaryJob(secondary_job_);
}

void IndexNodeRig::StartCpuBully(int threads) {
  assert(cpu_bully_ == nullptr);
  cpu_bully_ = std::make_unique<CpuBully>(machine_.get(), secondary_job_, threads);
}

void IndexNodeRig::StartDiskBully(const DiskBully::Options& options) {
  assert(disk_bully_ == nullptr);
  hdd_sched_->RegisterOwner(options.owner, "disk-bully", /*priority=*/1, /*weight=*/1);
  disk_bully_ = std::make_unique<DiskBully>(sim_, machine_.get(), hdd_sched_.get(),
                                            secondary_job_, options, rng_.Fork());
  disk_bully_->Start();
}

void IndexNodeRig::StartHdfsClient(const HdfsClient::Options& options) {
  assert(hdfs_client_ == nullptr);
  hdd_sched_->RegisterOwner(options.owner, "hdfs-client", /*priority=*/1, /*weight=*/1);
  hdd_sched_->RegisterOwner(options.owner + 1, "hdfs-replication", /*priority=*/1,
                            /*weight=*/1);
  hdfs_client_ = std::make_unique<HdfsClient>(sim_, machine_.get(), hdd_sched_.get(),
                                              secondary_job_, options, rng_.Fork());
  hdfs_client_->Start();
}

void IndexNodeRig::StartMlTraining(const MlTrainingJob::Options& options) {
  assert(ml_training_ == nullptr);
  hdd_sched_->RegisterOwner(options.owner, "ml-training", /*priority=*/2, /*weight=*/1);
  ml_training_ = std::make_unique<MlTrainingJob>(sim_, machine_.get(), hdd_sched_.get(),
                                                 secondary_job_, options);
  ml_training_->Start();
}

void IndexNodeRig::StartNetworkBully(Fabric* fabric, int endpoint,
                                     const NetworkBully::Options& options) {
  assert(network_bully_ == nullptr);
  network_bully_ = std::make_unique<NetworkBully>(sim_, machine_.get(), fabric, endpoint,
                                                  secondary_job_, options, rng_.Fork());
  network_bully_->Start();
}

void IndexNodeRig::StartTenants(const TenantMixSpec& mix) {
  if (mix.cpu_bully_threads > 0) {
    StartCpuBully(mix.cpu_bully_threads);
  }
  if (mix.disk_bully) {
    StartDiskBully(DiskBully::Options{});
  }
  if (mix.hdfs_client) {
    StartHdfsClient(HdfsClient::Options{});
  }
  if (mix.ml_training) {
    MlTrainingJob::Options options;
    options.worker_threads = mix.ml_worker_threads;
    StartMlTraining(options);
  }
}

Status IndexNodeRig::StartPerfIso(const PerfIsoConfig& config) {
  assert(perfiso_ == nullptr);
  perfiso_ = std::make_unique<PerfIsoController>(platform_.get(), config);
  PERFISO_RETURN_IF_ERROR(perfiso_->Initialize());
  perfiso_->AttachToSimulator(sim_);
  if (tracer_ != nullptr) {
    perfiso_->EnableTracing(tracer_, machine_pid_);
  }
  return OkStatus();
}

void IndexNodeRig::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  machine_pid_ = machine_->EnableTracing(tracer);
  server_->EnableTracing(tracer, machine_pid_);
  const int ssd_pid = ssd_volume_->EnableTracing(tracer);
  ssd_sched_->EnableTracing(tracer, ssd_pid);
  const int hdd_pid = hdd_volume_->EnableTracing(tracer);
  hdd_sched_->EnableTracing(tracer, hdd_pid);
  if (perfiso_ != nullptr) {
    perfiso_->EnableTracing(tracer, machine_pid_);
  }
}

double IndexNodeRig::SecondaryProgress() const {
  auto cpu = machine_->JobCpuTime(secondary_job_);
  return cpu.ok() ? ToSeconds(*cpu) : 0;
}

IndexNodeRig::UtilizationSnapshot IndexNodeRig::SnapshotUtilization() const {
  UtilizationSnapshot snap;
  machine_->SettleAccounting();
  snap.at = sim_->Now();
  for (int tenant = 0; tenant < kNumTenantClasses; ++tenant) {
    snap.busy[tenant] = machine_->metrics().busy_ns[tenant];
  }
  return snap;
}

double IndexNodeRig::UtilizationSince(const UtilizationSnapshot& snap,
                                      TenantClass tenant) const {
  machine_->SettleAccounting();  // include in-flight work up to now
  return machine_->UtilizationSince(snap.at, snap.busy, tenant);
}

double IndexNodeRig::IdleFractionSince(const UtilizationSnapshot& snap) const {
  double busy = 0;
  busy += UtilizationSince(snap, TenantClass::kPrimary);
  busy += UtilizationSince(snap, TenantClass::kSecondary);
  busy += UtilizationSince(snap, TenantClass::kOs);
  return 1.0 - busy;
}

}  // namespace perfiso
