#include "src/disk/disk.h"

#include <cassert>
#include <utility>

#include "src/disk/io_scheduler.h"

namespace perfiso {

DiskSpec DiskSpec::Ssd() {
  DiskSpec spec;
  spec.model = "ssd-500g";
  spec.read_latency = FromMicros(80);
  spec.write_latency = FromMicros(60);
  spec.seek_penalty = 0;
  spec.bandwidth_bps = 550e6;
  spec.concurrency = 8;
  return spec;
}

DiskSpec DiskSpec::Hdd() {
  DiskSpec spec;
  spec.model = "hdd-2t-7200";
  spec.read_latency = FromMicros(500);
  spec.write_latency = FromMicros(500);
  spec.seek_penalty = FromMillis(7);
  spec.bandwidth_bps = 160e6;
  spec.concurrency = 1;
  return spec;
}

DiskDevice::DiskDevice(DiskSpec spec, std::string name)
    : spec_(std::move(spec)), name_(std::move(name)) {
  assert(spec_.concurrency > 0 && spec_.bandwidth_bps > 0);
}

SimDuration DiskDevice::ServiceTime(const IoRequest& request) const {
  SimDuration service =
      request.op == IoOp::kRead ? spec_.read_latency : spec_.write_latency;
  if (!request.sequential) {
    service += spec_.seek_penalty;
  }
  service += static_cast<SimDuration>(static_cast<double>(request.bytes) /
                                      spec_.bandwidth_bps * kSecond);
  if (latency_multiplier_ != 1.0) {
    // Only degraded devices take this branch: the healthy path never runs the
    // scaling arithmetic, keeping no-fault digests bit-identical.
    service = static_cast<SimDuration>(static_cast<double>(service) * latency_multiplier_);
  }
  return service;
}

void DiskDevice::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, name_);
}

StripedVolume::StripedVolume(const DiskSpec& spec, int num_drives, std::string name)
    : name_(std::move(name)) {
  assert(num_drives > 0);
  drives_.reserve(static_cast<size_t>(num_drives));
  for (int i = 0; i < num_drives; ++i) {
    drives_.emplace_back(spec, name_ + "-d" + std::to_string(i));
  }
}

void StripedVolume::SetLatencyMultiplier(double multiplier) {
  for (DiskDevice& drive : drives_) {
    drive.SetLatencyMultiplier(multiplier);
  }
}

int64_t StripedVolume::CompletedOps() const {
  int64_t ops = 0;
  for (const DiskDevice& drive : drives_) {
    ops += drive.CompletedOps();
  }
  return ops;
}

const OwnerIoStats& StripedVolume::OwnerStats(int owner) const {
  static const OwnerIoStats kEmpty;
  return scheduler_ == nullptr ? kEmpty : scheduler_->Stats(owner);
}

int StripedVolume::EnableTracing(Tracer* tracer) {
  const int pid = tracer->RegisterProcess(name_);
  for (DiskDevice& drive : drives_) {
    drive.EnableTracing(tracer, pid);
  }
  return pid;
}

}  // namespace perfiso
