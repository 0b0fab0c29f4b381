#include "src/workload/bullies.h"

#include <cassert>

namespace perfiso {

CpuBully::CpuBully(SimMachine* machine, JobId job, int threads)
    : machine_(machine), job_(job), threads_(threads) {
  assert(threads >= 0);
  assert(job.valid());
  for (int i = 0; i < threads; ++i) {
    machine_->SpawnLoopThread(TenantClass::kSecondary, job_);
  }
}

CpuBully::CpuBully(SimMachine* machine, int threads, const std::string& name)
    : CpuBully(machine, machine->CreateJob(name), threads) {}

double CpuBully::Progress() const {
  auto cpu = machine_->JobCpuTime(job_);
  return cpu.ok() ? ToSeconds(*cpu) : 0;
}

void CpuBully::Stop() { (void)machine_->KillJob(job_); }

DiskBully::DiskBully(Simulator* sim, SimMachine* machine, IoScheduler* io, JobId job,
                     Options options, Rng rng)
    : sim_(sim), machine_(machine), io_(io), job_(job), options_(options), rng_(rng) {}

void DiskBully::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  for (int i = 0; i < options_.queue_depth; ++i) {
    IssueOne();
  }
}

void DiskBully::Stop() { running_ = false; }

void DiskBully::IssueOne() {
  if (!running_) {
    return;
  }
  // Synchronous pattern: a tiny CPU burst (issuing thread), then the I/O,
  // then the next I/O from the completion.
  machine_->SpawnThread(TenantClass::kSecondary, job_, options_.cpu_per_io,
                        [this](SimTime) {
                          IoRequest request;
                          request.owner = options_.owner;
                          request.op = rng_.Bernoulli(options_.read_fraction) ? IoOp::kRead
                                                                              : IoOp::kWrite;
                          request.bytes = options_.block_bytes;
                          request.sequential = true;
                          request.on_complete = [this](SimTime) {
                            ++completed_ios_;
                            IssueOne();
                          };
                          io_->Submit(std::move(request));
                        });
}

double DiskBully::AchievedIops(SimTime since, SimTime now, int64_t ios_then) const {
  const double window_sec = ToSeconds(now - since);
  if (window_sec <= 0) {
    return 0;
  }
  return static_cast<double>(completed_ios_ - ios_then) / window_sec;
}

HdfsClient::HdfsClient(Simulator* sim, SimMachine* machine, IoScheduler* io, JobId job,
                       Options options, Rng rng)
    : sim_(sim), machine_(machine), io_(io), job_(job), options_(options), rng_(rng) {}

void HdfsClient::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // CPU footprint: run cpu_fraction of the machine as rate-unlimited loop
  // threads would be wrong (they'd expand to fill cores); instead spawn one
  // loop thread per whole core's worth and rely on the job's rate cap being
  // managed by PerfIso. We model the ~5% footprint as periodic short bursts.
  const int cores = machine_->NumCores();
  const SimDuration burst = FromMicros(500);
  const auto period = static_cast<SimDuration>(
      static_cast<double>(burst) / (options_.cpu_fraction * cores));
  cpu_ticker_ = std::make_unique<PeriodicTask>(
      sim_, sim_->Now(), std::max<SimDuration>(period, FromMicros(100)), [this, burst](SimTime) {
        if (running_) {
          machine_->SpawnThread(TenantClass::kSecondary, job_, burst, nullptr);
        }
      });
  IssueClientIo();
  IssueReplicationIo();
}

void HdfsClient::Stop() {
  running_ = false;
  cpu_ticker_.reset();
}

void HdfsClient::IssueClientIo() {
  if (!running_) {
    return;
  }
  IoRequest request;
  request.owner = options_.owner;
  request.op = rng_.Bernoulli(0.5) ? IoOp::kRead : IoOp::kWrite;
  request.bytes = options_.block_bytes;
  request.sequential = true;
  request.on_complete = [this](SimTime now) {
    bytes_transferred_ += options_.block_bytes;
    // Pace to the configured rate (the static 60 MB/s limit is additionally
    // enforced by the I/O scheduler's bandwidth cap).
    const auto gap = static_cast<SimDuration>(static_cast<double>(options_.block_bytes) /
                                              options_.client_bytes_per_sec * kSecond);
    sim_->Schedule(now + gap, [this] { IssueClientIo(); });
  };
  io_->Submit(std::move(request));
}

void HdfsClient::IssueReplicationIo() {
  if (!running_) {
    return;
  }
  IoRequest request;
  request.owner = options_.owner + 1;  // replication registers as its own owner
  request.op = IoOp::kWrite;
  request.bytes = options_.block_bytes;
  request.sequential = true;
  request.on_complete = [this](SimTime now) {
    bytes_transferred_ += options_.block_bytes;
    const auto gap = static_cast<SimDuration>(static_cast<double>(options_.block_bytes) /
                                              options_.replication_bytes_per_sec * kSecond);
    sim_->Schedule(now + gap, [this] { IssueReplicationIo(); });
  };
  io_->Submit(std::move(request));
}

NetworkBully::NetworkBully(Simulator* sim, SimMachine* machine, Fabric* fabric, int endpoint,
                           JobId job, Options options, Rng rng)
    : sim_(sim),
      machine_(machine),
      fabric_(fabric),
      endpoint_(endpoint),
      job_(job),
      options_(options),
      rng_(rng) {
  assert(fabric_ != nullptr);
  assert(!options_.peers.empty());
}

void NetworkBully::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  for (int i = 0; i < options_.streams; ++i) {
    SendBlock();
  }
}

void NetworkBully::Stop() { running_ = false; }

void NetworkBully::SendBlock() {
  if (!running_) {
    return;
  }
  // Closed loop per stream: a pipeline-thread CPU burst, then the block on
  // the wire, then the next block once the far end acknowledges delivery.
  machine_->SpawnThread(TenantClass::kSecondary, job_, options_.cpu_per_block,
                        [this](SimTime) {
                          if (!running_) {  // Stop() raced the CPU burst
                            return;
                          }
                          const auto pick = static_cast<size_t>(rng_.UniformInt(
                              0, static_cast<int64_t>(options_.peers.size()) - 1));
                          const int dst = options_.peers[pick];
                          fabric_->Send(endpoint_, dst, options_.block_bytes,
                                        NetClass::kSecondary, [this](SimTime) {
                                          ++blocks_delivered_;
                                          bytes_delivered_ += options_.block_bytes;
                                          SendBlock();
                                        });
                        });
}

double NetworkBully::AchievedBps(SimTime since, SimTime now, int64_t bytes_then) const {
  const double window_sec = ToSeconds(now - since);
  if (window_sec <= 0) {
    return 0;
  }
  return static_cast<double>(bytes_delivered_ - bytes_then) / window_sec;
}

MlTrainingJob::MlTrainingJob(Simulator* sim, SimMachine* machine, IoScheduler* io, JobId job,
                             Options options)
    : sim_(sim), machine_(machine), io_(io), job_(job), options_(options) {}

void MlTrainingJob::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  for (int i = 0; i < options_.worker_threads; ++i) {
    machine_->SpawnLoopThread(TenantClass::kSecondary, job_);
  }
  ticker_ = std::make_unique<PeriodicTask>(sim_, sim_->Now() + options_.read_period,
                                           options_.read_period,
                                           [this](SimTime now) { Tick(now); });
}

void MlTrainingJob::Stop() {
  running_ = false;
  ticker_.reset();
  (void)machine_->KillJob(job_);
}

double MlTrainingJob::Progress() const {
  auto cpu = machine_->JobCpuTime(job_);
  return cpu.ok() ? ToSeconds(*cpu) : 0;
}

void MlTrainingJob::Tick(SimTime) {
  if (!running_) {
    return;
  }
  // Minibatch fetch from the HDD stripe.
  IoRequest request;
  request.owner = options_.owner;
  request.op = IoOp::kRead;
  request.bytes = options_.minibatch_read_bytes;
  request.sequential = true;
  io_->Submit(std::move(request));
  // Footprint growth up to the cap (model state, activations, caches).
  auto memory = machine_->JobMemory(job_);
  if (memory.ok() && *memory < options_.memory_cap_bytes) {
    const int64_t growth = static_cast<int64_t>(
        static_cast<double>(options_.memory_growth_per_sec) * ToSeconds(options_.read_period));
    (void)machine_->AddJobMemory(job_, growth);
  }
}

}  // namespace perfiso
