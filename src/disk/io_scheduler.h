// Priority + deficit-weighted-round-robin I/O scheduling in front of a volume.
//
// PerfIso cannot rely on per-process OS I/O accounting ("monitoring provides
// only per-device statistics", §4.1), so it throttles at submission time:
// every process is registered with a priority band and a DWRR weight, and may
// carry bandwidth / IOPS caps (the paper's static limits: HDFS clients
// 60 MB/s, replication 20 MB/s; or the cluster experiment's 100 MB/s /
// 20 IOPS throttles). The scheduler bounds the number of requests outstanding
// at the device so that priority inversion inside device queues is limited.
#ifndef PERFISO_SRC_DISK_IO_SCHEDULER_H_
#define PERFISO_SRC_DISK_IO_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/disk/disk.h"
#include "src/sim/simulator.h"
#include "src/util/status.h"
#include "src/util/token_bucket.h"

namespace perfiso {

class IoScheduler {
 public:
  static constexpr int kNumPriorities = 3;  // 0 = highest

  // `max_outstanding` bounds requests in flight at the volume; a small
  // multiple of the stripe's aggregate concurrency keeps devices busy without
  // letting low-priority work swamp their internal queues.
  IoScheduler(Simulator* sim, StripedVolume* volume, int max_outstanding);

  // The token-bucket wake captures `this`; a scheduler torn down with
  // bucket-blocked requests must take the armed wake with it.
  ~IoScheduler() { sim_->CancelOwned(retry_event_); }

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // Registers a submitting process. Requests from unregistered owners get
  // priority kNumPriorities-1 and weight 1.
  void RegisterOwner(int owner, std::string name, int priority, double weight);

  Status SetPriority(int owner, int priority);
  // caps <= 0 clear the limit.
  Status SetBandwidthCap(int owner, double bytes_per_sec);
  Status SetIopsCap(int owner, double iops);

  StatusOr<int> Priority(int owner) const;

  // Enqueues a request for dispatch. The request's completion callback fires
  // after the device finishes it.
  void Submit(IoRequest request);

  // Fault injection (node crash): drops every queued request — scheduler
  // queues plus the volume's queued and in-flight requests — without running
  // any completion callback, resets DWRR/token-bucket dispatch state, and
  // zeroes the outstanding count (the cancelled completions would otherwise
  // never return their slots). Returns the number of dropped requests.
  int CancelAll();

  // Per-owner scheduler-level stats (distinct from device-level OwnerStats:
  // these include time spent queued inside the scheduler).
  struct OwnerSchedStats {
    int64_t submitted = 0;
    int64_t dispatched = 0;
    int64_t completed = 0;
    int64_t bytes_completed = 0;
    LatencyRecorder total_latency_us;  // submit-to-complete incl. queueing
  };
  const OwnerSchedStats& Stats(int owner) const;
  int outstanding() const { return outstanding_; }

  StripedVolume* volume() const { return volume_; }

  // Adds a scheduler track to the volume's tracer process; traced requests
  // then report their scheduler queueing time there.
  void EnableTracing(Tracer* tracer, int process);

 private:
  struct Owner {
    std::string name;
    int priority = kNumPriorities - 1;
    double weight = 1.0;
    double deficit_bytes = 0;
    std::unique_ptr<TokenBucket> bandwidth_cap;
    std::unique_ptr<TokenBucket> iops_cap;
    std::deque<IoRequest> queue;
    OwnerSchedStats stats;
  };

  Owner& GetOrCreateOwner(int owner);
  // Dispatches as many requests as limits allow; arms a retry timer when
  // progress is blocked only by token buckets.
  void Pump();
  // One DWRR round over a priority band; returns true if anything dispatched.
  bool ServeBand(int priority, SimTime now, SimTime* earliest_retry);
  bool CapsAllow(Owner& owner, const IoRequest& request, SimTime now, SimTime* earliest);
  void ChargeCaps(Owner& owner, const IoRequest& request, SimTime now);

  Simulator* sim_;
  StripedVolume* volume_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  int max_outstanding_;
  int outstanding_ = 0;
  std::map<int, Owner> owners_;
  std::array<int, kNumPriorities> last_served_ = {-1, -1, -1};
  // Owner owed further service in the band (drain cut short by the
  // outstanding bound); -1 when none.
  std::array<int, kNumPriorities> resume_owner_ = {-1, -1, -1};
  // Pending token-bucket wake. Tightened earlier when a newly blocked
  // request becomes admissible sooner; cancelled when nothing is blocked on
  // buckets anymore.
  EventHandle retry_event_;
  // Bytes of deficit granted per DWRR visit per unit weight.
  static constexpr double kQuantumBytes = 64 * 1024;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_DISK_IO_SCHEDULER_H_
