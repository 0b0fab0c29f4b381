// IndexNodeRig: one fully-assembled IndexServe machine.
//
// Bundles the substrate a single server needs — SimMachine, striped SSD/HDD
// volumes with I/O schedulers, the IndexServer, the secondary job object, a
// SimPlatform, and (optionally) a PerfIsoController plus secondary workloads.
// Both the single-machine experiments (Figs. 4-8) and the cluster experiments
// (Figs. 9-10) are built out of these.
#ifndef PERFISO_SRC_CLUSTER_INDEX_NODE_H_
#define PERFISO_SRC_CLUSTER_INDEX_NODE_H_

#include <memory>
#include <string>

#include "src/disk/io_scheduler.h"
#include "src/indexserve/index_server.h"
#include "src/perfiso/controller.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/workload/bullies.h"

namespace perfiso {

struct TenantMixSpec;  // src/workload/scenario.h

// I/O owner ids for secondary traffic on the shared HDD volume.
inline constexpr int kIoOwnerDiskBully = 900;
inline constexpr int kIoOwnerHdfsClient = 901;
inline constexpr int kIoOwnerHdfsReplication = 902;
inline constexpr int kIoOwnerMlTraining = 903;

struct IndexNodeOptions {
  MachineSpec machine;
  IndexServeConfig indexserve;
  int ssd_drives = 4;  // the paper's 4x 500 GB SSD stripe
  int hdd_drives = 4;  // the paper's 4x 2 TB HDD stripe
  uint64_t seed = 1;
};

class IndexNodeRig {
 public:
  IndexNodeRig(Simulator* sim, const IndexNodeOptions& options, const std::string& name);

  // --- Secondary tenants (all share the unified secondary job object, §4) ---
  void StartCpuBully(int threads);
  void StartDiskBully(const DiskBully::Options& options);
  void StartHdfsClient(const HdfsClient::Options& options);
  void StartMlTraining(const MlTrainingJob::Options& options);
  // `endpoint` is this machine's id on `fabric` (the Cluster hands both out).
  void StartNetworkBully(Fabric* fabric, int endpoint, const NetworkBully::Options& options);
  // Starts every tenant a declarative scenario names (CPU/disk bullies, HDFS
  // client, ML training) with the module defaults; single-box and cluster
  // rigs share this entry point.
  void StartTenants(const TenantMixSpec& mix);

  // Attaches a PerfIso controller with `config` and starts its poll loops.
  Status StartPerfIso(const PerfIsoConfig& config);

  // Registers this rig's machine, index server, volumes, and I/O schedulers
  // with the tracer. Call before submitting traced queries; a PerfIso
  // controller started afterwards is wired automatically (decision instants).
  void EnableTracing(Tracer* tracer);

  // --- Fault injection --------------------------------------------------------
  // Crash models the index-serving process and its storage stack dying: every
  // live query fails (IndexServer::Crash), and all queued + in-flight I/O on
  // both volumes is dropped without completions (IoScheduler::CancelAll).
  // Residual CPU bursts of dead queries run to completion but their
  // continuations are inert (their query refs no longer match a live slot,
  // see IndexServer::QueryRef). Secondary tenants are
  // separate processes in this model: their CPU loops keep running, though
  // any I/O chain they had in flight dies with the storage stack. Restart
  // brings the serving process back with cold state; queries flow again on
  // the next submission.
  void Crash() {
    server_->Crash();
    ssd_sched_->CancelAll();
    hdd_sched_->CancelAll();
  }
  void Restart() { server_->Restart(); }
  bool crashed() const { return server_->crashed(); }

  StripedVolume& ssd_volume() { return *ssd_volume_; }
  StripedVolume& hdd_volume() { return *hdd_volume_; }

  // Accessors.
  Simulator* sim() const { return sim_; }
  SimMachine& machine() { return *machine_; }
  IndexServer& server() { return *server_; }
  SimPlatform& platform() { return *platform_; }
  PerfIsoController* perfiso() { return perfiso_.get(); }
  IoScheduler& ssd_scheduler() { return *ssd_sched_; }
  IoScheduler& hdd_scheduler() { return *hdd_sched_; }
  JobId secondary_job() const { return secondary_job_; }
  CpuBully* cpu_bully() { return cpu_bully_.get(); }
  DiskBully* disk_bully() { return disk_bully_.get(); }
  MlTrainingJob* ml_training() { return ml_training_.get(); }
  NetworkBully* network_bully() { return network_bully_.get(); }

  // Secondary progress in core-seconds (CPU time of the secondary job).
  double SecondaryProgress() const;

  // Utilization snapshot support: caller records busy_ns then diffs.
  struct UtilizationSnapshot {
    SimTime at = 0;
    SimDuration busy[kNumTenantClasses] = {0, 0, 0};
  };
  UtilizationSnapshot SnapshotUtilization() const;
  // Fractions of machine capacity used since `snap` per tenant; idle is the
  // remainder to 1.0.
  double UtilizationSince(const UtilizationSnapshot& snap, TenantClass tenant) const;
  double IdleFractionSince(const UtilizationSnapshot& snap) const;

 private:
  Simulator* sim_;
  std::unique_ptr<SimMachine> machine_;
  std::unique_ptr<StripedVolume> ssd_volume_;
  std::unique_ptr<StripedVolume> hdd_volume_;
  std::unique_ptr<IoScheduler> ssd_sched_;
  std::unique_ptr<IoScheduler> hdd_sched_;
  std::unique_ptr<IndexServer> server_;
  std::unique_ptr<SimPlatform> platform_;
  // After machine_ and platform_, so it is destroyed first: its destructor
  // disarms the machine's idle watch, which points into it.
  std::unique_ptr<PerfIsoController> perfiso_;
  Tracer* tracer_ = nullptr;
  int machine_pid_ = 0;
  JobId secondary_job_;
  Rng rng_;
  std::unique_ptr<CpuBully> cpu_bully_;
  std::unique_ptr<DiskBully> disk_bully_;
  std::unique_ptr<HdfsClient> hdfs_client_;
  std::unique_ptr<MlTrainingJob> ml_training_;
  std::unique_ptr<NetworkBully> network_bully_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_CLUSTER_INDEX_NODE_H_
