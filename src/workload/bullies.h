// Secondary-tenant workloads.
//
// CpuBully reproduces the paper's micro-benchmark: "a multi-threaded program
// with each worker thread computing the sum of several integer values"
// (§5.3) — pure CPU, negligible memory/disk. DiskBully reproduces the
// DiskSPD configuration from the cluster experiments: mixed 33% read / 67%
// write sequential synchronous I/O against the HDD stripe. HdfsClient models
// the DataNode/NodeManager traffic every IndexServe machine carries, and
// MlTrainingJob models the batch ML training computation of Fig. 10.
#ifndef PERFISO_SRC_WORKLOAD_BULLIES_H_
#define PERFISO_SRC_WORKLOAD_BULLIES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/disk/io_scheduler.h"
#include "src/net/fabric.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {

// CPU-bound bully: `threads` loop workers inside one job object. Progress is
// CPU time (the integer-sum loop does fixed work per cycle, so work done is
// proportional to cycles consumed).
class CpuBully {
 public:
  // Spawns workers inside an existing job object (the unified secondary job).
  CpuBully(SimMachine* machine, JobId job, int threads);
  // Convenience: creates a dedicated job object first.
  CpuBully(SimMachine* machine, int threads, const std::string& name = "cpu-bully");

  JobId job() const { return job_; }
  int threads() const { return threads_; }

  // Work completed so far, in core-seconds.
  double Progress() const;

  void Stop();

 private:
  SimMachine* machine_;
  JobId job_;
  int threads_;
};

// Disk-bound bully (DiskSPD-like): keeps `queue_depth` synchronous sequential
// requests in flight against a scheduler, with the given read fraction.
class DiskBully {
 public:
  struct Options {
    int owner = 900;
    int queue_depth = 8;
    int64_t block_bytes = 8 * 1024;   // the cluster experiment uses 8 KB ops
    double read_fraction = 0.33;      // 33% reads / 67% writes
    // A small CPU cost per I/O keeps the issuing threads honest but cheap.
    SimDuration cpu_per_io = FromMicros(5);
  };

  DiskBully(Simulator* sim, SimMachine* machine, IoScheduler* io, JobId job, Options options,
            Rng rng);

  void Start();
  void Stop();

  int64_t completed_ios() const { return completed_ios_; }
  double AchievedIops(SimTime since, SimTime now, int64_t ios_then) const;

 private:
  void IssueOne();

  Simulator* sim_;
  SimMachine* machine_;
  IoScheduler* io_;
  JobId job_;
  Options options_;
  Rng rng_;
  bool running_ = false;
  int64_t completed_ios_ = 0;
};

// HDFS DataNode + NodeManager traffic: replication ingest (sequential writes)
// plus client reads, each at a configured target rate; also burns a small
// amount of CPU inside the secondary job (the paper measures the HDFS client
// at up to 5% of total CPU, §6.2).
class HdfsClient {
 public:
  struct Options {
    int owner = 901;
    int64_t block_bytes = 64 * 1024;
    double client_bytes_per_sec = 60e6;       // paper: HDFS clients 60 MB/s
    double replication_bytes_per_sec = 20e6;  // paper: replication 20 MB/s
    double cpu_fraction = 0.04;               // fraction of one machine's CPU
  };

  HdfsClient(Simulator* sim, SimMachine* machine, IoScheduler* io, JobId job, Options options,
             Rng rng);

  void Start();
  void Stop();
  int64_t bytes_transferred() const { return bytes_transferred_; }

 private:
  void IssueClientIo();
  void IssueReplicationIo();

  Simulator* sim_;
  SimMachine* machine_;
  IoScheduler* io_;
  JobId job_;
  Options options_;
  Rng rng_;
  bool running_ = false;
  int64_t bytes_transferred_ = 0;
  std::unique_ptr<PeriodicTask> cpu_ticker_;
};

// HDFS-replication-style network bully: keeps `streams` block transfers in
// flight to random peers, each preceded by a small CPU burst (the DataNode
// pipeline thread). Flows are secondary-class, so they yield to primary
// traffic in the local NIC's priority TX queues and drain the machine's
// egress bucket when PerfIso caps it — but uncapped they pile into the
// victims' FIFO RX links and the shared ToR uplinks, which is exactly how a
// network bully destroys the cluster tail without touching its own CPU.
class NetworkBully {
 public:
  struct Options {
    int64_t block_bytes = 4 * 1024 * 1024;  // HDFS-style bulk blocks
    int streams = 4;                        // concurrent outstanding blocks
    SimDuration cpu_per_block = FromMicros(50);
    std::vector<int> peers;  // destination fabric endpoints (may include self)
  };

  NetworkBully(Simulator* sim, SimMachine* machine, Fabric* fabric, int endpoint, JobId job,
               Options options, Rng rng);

  void Start();
  void Stop();

  int64_t blocks_delivered() const { return blocks_delivered_; }
  int64_t bytes_delivered() const { return bytes_delivered_; }
  double AchievedBps(SimTime since, SimTime now, int64_t bytes_then) const;

 private:
  void SendBlock();

  Simulator* sim_;
  SimMachine* machine_;
  Fabric* fabric_;
  int endpoint_;
  JobId job_;
  Options options_;
  Rng rng_;
  bool running_ = false;
  int64_t blocks_delivered_ = 0;
  int64_t bytes_delivered_ = 0;
};

// Batch ML training (Fig. 10's secondary): CPU-heavy epochs with periodic
// bulk reads of training data from the HDD stripe and a growing memory
// footprint (which exercises the memory watchdog).
class MlTrainingJob {
 public:
  struct Options {
    int owner = 903;
    int worker_threads = 48;
    int64_t minibatch_read_bytes = 4 * 1024 * 1024;
    SimDuration read_period = FromMillis(250);
    int64_t memory_growth_per_sec = 64LL * 1024 * 1024;
    int64_t memory_cap_bytes = 16LL * 1024 * 1024 * 1024;
  };

  MlTrainingJob(Simulator* sim, SimMachine* machine, IoScheduler* io, JobId job,
                Options options);

  void Start();
  void Stop();
  double Progress() const;  // core-seconds of training compute

 private:
  void Tick(SimTime now);

  Simulator* sim_;
  SimMachine* machine_;
  IoScheduler* io_;
  JobId job_;
  Options options_;
  bool running_ = false;
  std::unique_ptr<PeriodicTask> ticker_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_WORKLOAD_BULLIES_H_
