// Priority + deficit-weighted-round-robin I/O scheduling in front of a volume.
//
// PerfIso cannot rely on per-process OS I/O accounting ("monitoring provides
// only per-device statistics", §4.1), so it throttles at submission time:
// every process is registered with a priority band and a DWRR weight, and may
// carry bandwidth / IOPS caps (the paper's static limits: HDFS clients
// 60 MB/s, replication 20 MB/s; or the cluster experiment's 100 MB/s /
// 20 IOPS throttles). The scheduler bounds the number of requests outstanding
// at the device so that priority inversion inside device queues is limited.
//
// The scheduler owns every request from Submit to completion, in a pooled
// slot that holds the caller's one callback. The slot waits on its owner's
// FIFO, is dispatched round-robin onto a drive's FIFO, is served under the
// drive's concurrency limit, and comes back to one private completion entry
// point that frees it before running the callback.
#ifndef PERFISO_SRC_DISK_IO_SCHEDULER_H_
#define PERFISO_SRC_DISK_IO_SCHEDULER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
  // letting low-priority work swamp their internal queues. One scheduler
  // fronts a volume.
  IoScheduler(Simulator* sim, StripedVolume* volume, int max_outstanding);

  // Drive completions and the token-bucket wake capture `this`; a scheduler
  // torn down mid-run takes every armed event with it.
  ~IoScheduler() { CancelAll(); }

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // Registers a submitting process. Requests from unregistered owners get
  // priority kNumPriorities-1 and weight 1.
  void RegisterOwner(int owner, std::string name, int priority, double weight);

  Status SetPriority(int owner, int priority);
  // caps <= 0 clear the limit.
  Status SetBandwidthCap(int owner, double bytes_per_sec);
  Status SetIopsCap(int owner, double iops);

  // Enqueues a request for dispatch. The request's completion callback fires
  // after the device finishes it.
  void Submit(IoRequest request);

  // Fault injection (node crash): frees every slot — queued at the scheduler,
  // queued at a drive, or in service — without running any completion
  // callback (in-service completions leave the simulator queue eagerly), and
  // resets DWRR/token-bucket dispatch state. Returns the number of dropped
  // requests.
  int CancelAll();

  // Per-owner counters. The PerfIso I/O throttler polls `ops` (through
  // SimPlatform::IoOpsCompleted) to compute per-process IOPS, §4.1.
  const OwnerIoStats& Stats(int owner) const;
  int outstanding() const { return outstanding_; }  // dispatched to a drive
  int queued() const { return queued_; }            // waiting in owner queues
  // Slots holding a request: queued() + outstanding() unless a slot leaked or
  // was freed twice (InvariantChecker asserts it).
  int occupied_slots() const { return occupied_; }

  // Adds a scheduler track to the volume's tracer process; traced requests
  // then report their scheduler queueing time there.
  void EnableTracing(Tracer* tracer, int process);

 private:
  static constexpr size_t kNoSlot = SIZE_MAX;

  // FIFO of slot indices, linked through Slot::next.
  struct Fifo {
    size_t head = kNoSlot;
    size_t tail = kNoSlot;
    bool empty() const { return head == kNoSlot; }
  };

  struct Owner {
    std::string name;
    int priority = kNumPriorities - 1;
    double weight = 1.0;
    double deficit_bytes = 0;
    std::unique_ptr<TokenBucket> bandwidth_cap;
    std::unique_ptr<TokenBucket> iops_cap;
    Fifo queue;
    OwnerIoStats stats;
  };

  // One request from Submit to completion: on its owner's FIFO until
  // dispatch, then on its drive's FIFO until the drive starts it, then in
  // service until `done_event` fires. Free slots chain through `next`.
  struct Slot {
    IoRequest request;
    Owner* owner = nullptr;
    SimTime queued = 0;      // Submit
    SimTime dispatched = 0;  // handed to a drive
    SimTime started = 0;     // drive began service
    // Armed while in service. The completion frees the slot; CancelAll
    // cancels every armed event first.
    EventHandle done_event;  // NOLINT(perfiso-LIFE-001)
    size_t drive = 0;
    size_t next = kNoSlot;
  };

  // A drive's FIFO and the requests it is serving (bounded by its spec's
  // concurrency); indexed like the volume's drives.
  struct Drive {
    Fifo queue;
    int active = 0;
  };

  Owner& GetOrCreateOwner(int owner);
  void PushBack(Fifo& fifo, size_t slot);
  size_t PopFront(Fifo& fifo);
  size_t AllocSlot();
  // Dispatches as many requests as limits allow; arms a retry timer when
  // progress is blocked only by token buckets.
  void Pump();
  // One DWRR round over a priority band; returns true if anything dispatched.
  bool ServeBand(int priority, SimTime now, SimTime* earliest_retry);
  // The first owner at or after `it`, wrapping at the end, in `priority`'s
  // band with requests queued. At least one such owner must exist.
  std::map<int, Owner>::iterator NextInBand(std::map<int, Owner>::iterator it, int priority);
  bool CapsAllow(Owner& owner, const IoRequest& request, SimTime now, SimTime* earliest);
  void ChargeCaps(Owner& owner, const IoRequest& request, SimTime now);
  // Starts queued requests on drive `d` up to its concurrency.
  void StartDrive(size_t d);
  // A drive finished `slot`: counts it, frees the slot, runs the caller's
  // callback, then refills the volume and the drive.
  void Complete(size_t slot);

  Simulator* sim_;
  StripedVolume* volume_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  int max_outstanding_;
  int outstanding_ = 0;
  int queued_ = 0;
  int occupied_ = 0;
  std::vector<Slot> slots_;
  size_t free_slot_ = kNoSlot;
  std::vector<Drive> drives_;
  size_t next_drive_ = 0;  // round-robin striping
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
