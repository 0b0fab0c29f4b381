// Disk device and striped-volume models.
//
// The paper's testbed has two striped volumes: 4x SSD (exclusive to
// IndexServe's index slice) and 4x HDD (IndexServe logging, shared with the
// secondary's HDFS traffic and the DiskSPD bully). A device serves requests
// with a fixed per-op latency plus a transfer time, with a seek penalty for
// non-sequential HDD accesses, and bounded internal concurrency (NCQ-style
// for SSDs, single-actuator for HDDs).
//
// These classes model the hardware only: spec, service time, fault
// multiplier, trace track and completed-op count. Every request — its
// callback, its wait in an owner or drive queue, its time in service and its
// completion — belongs to the IoScheduler in front of the volume
// (src/disk/io_scheduler.h).
#ifndef PERFISO_SRC_DISK_DISK_H_
#define PERFISO_SRC_DISK_DISK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"

namespace perfiso {

class IoScheduler;

enum class IoOp { kRead, kWrite };

// Static device parameters.
struct DiskSpec {
  std::string model;
  SimDuration read_latency = FromMicros(80);
  SimDuration write_latency = FromMicros(60);
  SimDuration seek_penalty = 0;  // added for non-sequential accesses
  double bandwidth_bps = 550e6;
  int concurrency = 8;  // requests serviced in parallel inside the device

  // A 500 GB SATA SSD, as in the paper's 4x SSD stripe.
  static DiskSpec Ssd();
  // A 2 TB 7200rpm HDD, as in the paper's 4x HDD stripe.
  static DiskSpec Hdd();
};

// One I/O request. `owner` tags the submitting process for per-tenant
// accounting and throttling. The completion callback runs in simulation time.
struct IoRequest {
  int owner = 0;
  IoOp op = IoOp::kRead;
  int64_t bytes = 4096;
  bool sequential = false;
  std::function<void(SimTime)> on_complete;
  // Query trace this request belongs to (0 = untraced): its queueing and
  // service become disk-queue/service spans on the scheduler's and the
  // serving drive's tracks.
  uint64_t trace_ctx = 0;
};

// Cumulative per-owner I/O accounting, kept by the IoScheduler.
struct OwnerIoStats {
  int64_t submitted = 0;
  int64_t dispatched = 0;
  int64_t ops = 0;    // completed
  int64_t bytes = 0;  // completed
  LatencyRecorder total_latency_us;  // submit-to-complete, scheduler queueing included
};

class DiskDevice {
 public:
  DiskDevice(DiskSpec spec, std::string name);

  int64_t CompletedOps() const { return completed_ops_; }

  // Service time for a request on an otherwise-idle device.
  SimDuration ServiceTime(const IoRequest& request) const;

  // Fault injection: scales the service time of requests *started* while the
  // multiplier is in effect (in-flight requests keep their original service
  // time). 1.0 — the default — is special-cased to skip the scaling
  // arithmetic entirely, so a never-degraded device is bit-identical to one
  // without the feature.
  void SetLatencyMultiplier(double multiplier) { latency_multiplier_ = multiplier; }

  // Registers this drive as a track of `process` (its volume); traced
  // requests then report queue/service spans there.
  void EnableTracing(Tracer* tracer, int process);

 private:
  friend class IoScheduler;

  DiskSpec spec_;
  std::string name_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  int64_t completed_ops_ = 0;
  double latency_multiplier_ = 1.0;
};

// N identical devices in a stripe; the scheduler in front distributes
// requests round-robin (stripe unit >= request size, so a request touches one
// device).
class StripedVolume {
 public:
  StripedVolume(const DiskSpec& spec, int num_drives, std::string name);

  // Applies a fault-injection latency multiplier to every drive.
  void SetLatencyMultiplier(double multiplier);

  int num_drives() const { return static_cast<int>(drives_.size()); }
  int64_t CompletedOps() const;

  // The fronting scheduler's per-owner counters (IoScheduler::Stats). Kept
  // only for the perfbench harness, which reads them through the volume.
  const OwnerIoStats& OwnerStats(int owner) const;

  // Registers the volume as a tracer process with one track per drive;
  // returns the process id so a fronting scheduler can add its own track.
  int EnableTracing(Tracer* tracer);

 private:
  friend class IoScheduler;

  std::string name_;
  std::vector<DiskDevice> drives_;
  const IoScheduler* scheduler_ = nullptr;  // set by the scheduler in front
};

}  // namespace perfiso

#endif  // PERFISO_SRC_DISK_DISK_H_
