#include "src/disk/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>
#include <limits>
#include <utility>

namespace perfiso {

IoScheduler::IoScheduler(Simulator* sim, StripedVolume* volume, int max_outstanding)
    : sim_(sim),
      volume_(volume),
      max_outstanding_(max_outstanding),
      drives_(volume->drives_.size()) {
  assert(max_outstanding > 0);
  assert(volume->scheduler_ == nullptr);
  volume->scheduler_ = this;
}

void IoScheduler::RegisterOwner(int owner, std::string name, int priority, double weight) {
  Owner& state = owners_[owner];
  state.name = std::move(name);
  state.priority = std::clamp(priority, 0, kNumPriorities - 1);
  state.weight = weight > 0 ? weight : 1.0;
}

IoScheduler::Owner& IoScheduler::GetOrCreateOwner(int owner) {
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    RegisterOwner(owner, "owner-" + std::to_string(owner), kNumPriorities - 1, 1.0);
    it = owners_.find(owner);
  }
  return it->second;
}

Status IoScheduler::SetPriority(int owner, int priority) {
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    return NotFoundError("unregistered I/O owner");
  }
  if (priority < 0 || priority >= kNumPriorities) {
    return InvalidArgumentError("priority out of range");
  }
  it->second.priority = priority;
  Pump();
  return OkStatus();
}

Status IoScheduler::SetBandwidthCap(int owner, double bytes_per_sec) {
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    return NotFoundError("unregistered I/O owner");
  }
  if (bytes_per_sec <= 0) {
    it->second.bandwidth_cap.reset();
  } else {
    // Burst of one second's allowance keeps large sequential ops admissible.
    it->second.bandwidth_cap =
        std::make_unique<TokenBucket>(bytes_per_sec, bytes_per_sec);
  }
  Pump();
  return OkStatus();
}

Status IoScheduler::SetIopsCap(int owner, double iops) {
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    return NotFoundError("unregistered I/O owner");
  }
  if (iops <= 0) {
    it->second.iops_cap.reset();
  } else {
    it->second.iops_cap = std::make_unique<TokenBucket>(iops, std::max(1.0, iops / 10));
  }
  Pump();
  return OkStatus();
}

void IoScheduler::Submit(IoRequest request) {
  Owner& owner = GetOrCreateOwner(request.owner);
  ++owner.stats.submitted;
  const size_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.request = std::move(request);
  s.owner = &owner;
  s.queued = sim_->Now();
  PushBack(owner.queue, slot);
  ++queued_;
  Pump();
}

size_t IoScheduler::AllocSlot() {
  ++occupied_;
  if (free_slot_ == kNoSlot) {
    slots_.emplace_back();
    return slots_.size() - 1;
  }
  const size_t slot = free_slot_;
  free_slot_ = slots_[slot].next;
  slots_[slot].next = kNoSlot;
  return slot;
}

void IoScheduler::PushBack(Fifo& fifo, size_t slot) {
  if (fifo.empty()) {
    fifo.head = slot;
  } else {
    slots_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
}

size_t IoScheduler::PopFront(Fifo& fifo) {
  const size_t slot = fifo.head;
  Slot& s = slots_[slot];
  fifo.head = s.next;
  s.next = kNoSlot;
  if (fifo.empty()) {
    fifo.tail = kNoSlot;
  }
  return slot;
}

void IoScheduler::StartDrive(size_t d) {
  Drive& drive = drives_[d];
  const DiskDevice& device = volume_->drives_[d];
  while (drive.active < device.spec_.concurrency && !drive.queue.empty()) {
    const size_t slot = PopFront(drive.queue);
    Slot& s = slots_[slot];
    ++drive.active;
    s.started = sim_->Now();
    if (device.tracer_ != nullptr && s.request.trace_ctx != 0 && s.started > s.dispatched) {
      device.tracer_->Span(s.request.trace_ctx, "disk.queue", SpanCategory::kDiskQueue,
                           device.track_, s.dispatched, s.started);
    }
    s.done_event =
        sim_->ScheduleAfter(device.ServiceTime(s.request), [this, slot] { Complete(slot); });
  }
}

void IoScheduler::Complete(size_t slot) {
  const SimTime now = sim_->Now();
  Slot& s = slots_[slot];
  const size_t d = s.drive;
  DiskDevice& device = volume_->drives_[d];
  --drives_[d].active;
  ++device.completed_ops_;
  if (device.tracer_ != nullptr && s.request.trace_ctx != 0) {
    device.tracer_->Span(s.request.trace_ctx, "disk.service", SpanCategory::kService,
                         device.track_, s.started, now);
  }
  OwnerIoStats& stats = s.owner->stats;
  ++stats.ops;
  stats.bytes += s.request.bytes;
  stats.total_latency_us.Add(ToMicros(now - s.queued));
  --outstanding_;
  // Free the slot before the callback runs: it may Submit again.
  std::function<void(SimTime)> done = std::move(s.request.on_complete);
  s = Slot{};
  s.next = free_slot_;
  free_slot_ = slot;
  --occupied_;
  if (done) {
    done(now);
  }
  Pump();
  StartDrive(d);
}

int IoScheduler::CancelAll() {
  for (Slot& s : slots_) {
    sim_->Cancel(s.done_event);
  }
  const int dropped = occupied_;
  // Dropping the slots destroys their callbacks unrun; the pool keeps its
  // capacity for the restart.
  slots_.clear();
  free_slot_ = kNoSlot;
  occupied_ = 0;
  queued_ = 0;
  outstanding_ = 0;
  for (auto& entry : owners_) {
    entry.second.queue = Fifo{};
    entry.second.deficit_bytes = 0;
  }
  for (Drive& drive : drives_) {
    drive = Drive{};
  }
  resume_owner_ = {-1, -1, -1};
  sim_->CancelOwned(retry_event_);
  return dropped;
}

void IoScheduler::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, "sched");
}

bool IoScheduler::CapsAllow(Owner& owner, const IoRequest& request, SimTime now,
                            SimTime* earliest) {
  SimTime when = now;
  if (owner.bandwidth_cap != nullptr) {
    when = std::max(when,
                    owner.bandwidth_cap->NextAvailable(static_cast<double>(request.bytes), now));
  }
  if (owner.iops_cap != nullptr) {
    when = std::max(when, owner.iops_cap->NextAvailable(1.0, now));
  }
  if (when > now) {
    *earliest = std::min(*earliest, when);
    return false;
  }
  return true;
}

void IoScheduler::ChargeCaps(Owner& owner, const IoRequest& request, SimTime now) {
  if (owner.bandwidth_cap != nullptr) {
    owner.bandwidth_cap->ForceConsume(static_cast<double>(request.bytes), now);
  }
  if (owner.iops_cap != nullptr) {
    owner.iops_cap->ForceConsume(1.0, now);
  }
}

bool IoScheduler::ServeBand(int priority, SimTime now, SimTime* earliest_retry) {
  // The band is this priority's owners with pending work, in stable (id)
  // order. An owner whose queue drained loses its banked deficit (standard
  // DWRR). Dispatch runs no callback, so the band cannot change while it is
  // served below.
  int band_size = 0;
  for (auto& entry : owners_) {
    Owner& owner = entry.second;
    if (owner.priority != priority) {
      continue;
    }
    if (owner.queue.empty()) {
      owner.deficit_bytes = 0;
      continue;
    }
    ++band_size;
  }
  if (band_size == 0) {
    return false;
  }

  // Resume semantics: if the previous round stopped mid-drain because the
  // outstanding bound filled up (not because the owner ran out of deficit),
  // continue with that owner — without granting a fresh quantum — so weight
  // ratios hold even when only one request can be in flight at a time.
  const auto p = static_cast<size_t>(priority);
  auto it = owners_.end();
  bool resuming = false;
  if (resume_owner_[p] >= 0) {
    it = owners_.find(resume_owner_[p]);
    resuming = it != owners_.end() && it->second.priority == priority &&
               !it->second.queue.empty();
  }
  if (!resuming) {
    it = NextInBand(owners_.upper_bound(last_served_[p]), priority);
  }
  resume_owner_[p] = -1;

  bool progressed = false;
  for (int visit = 0; visit < band_size; ++visit) {
    if (visit > 0) {
      // Unvisited band members still have work, so the walk ends on one.
      it = NextInBand(std::next(it), priority);
    }
    Owner& owner = it->second;
    // One quantum per visit (unless resuming a cut-short drain), then drain
    // while the deficit, the caps, and the outstanding bound allow. Draining
    // multiple requests per visit is what realizes the weight ratios.
    if (!(resuming && visit == 0)) {
      // Banked deficit is bounded, but never below the head request's size —
      // otherwise an owner with requests larger than its bank could starve
      // forever.
      const double cap = std::max(4 * owner.weight * kQuantumBytes,
                                  static_cast<double>(slots_[owner.queue.head].request.bytes));
      owner.deficit_bytes =
          std::min(owner.deficit_bytes + owner.weight * kQuantumBytes, cap);
    }
    bool drained_by_deficit_or_caps = false;
    while (outstanding_ < max_outstanding_) {
      if (owner.queue.empty()) {
        drained_by_deficit_or_caps = true;
        break;
      }
      const IoRequest& head = slots_[owner.queue.head].request;
      if (owner.deficit_bytes < static_cast<double>(head.bytes) ||
          !CapsAllow(owner, head, now, earliest_retry)) {
        drained_by_deficit_or_caps = true;
        break;
      }
      const size_t slot = PopFront(owner.queue);
      --queued_;
      Slot& s = slots_[slot];
      owner.deficit_bytes -= static_cast<double>(s.request.bytes);
      ChargeCaps(owner, s.request, now);
      ++owner.stats.dispatched;
      ++outstanding_;
      if (tracer_ != nullptr && s.request.trace_ctx != 0 && now > s.queued) {
        tracer_->Span(s.request.trace_ctx, "io.sched.queue", SpanCategory::kDiskQueue, track_,
                      s.queued, now);
      }
      // Stripe round-robin onto the drives.
      s.dispatched = now;
      s.drive = next_drive_;
      next_drive_ = (next_drive_ + 1) % drives_.size();
      PushBack(drives_[s.drive].queue, slot);
      StartDrive(s.drive);
      progressed = true;
    }
    last_served_[p] = it->first;
    if (outstanding_ >= max_outstanding_) {
      if (!drained_by_deficit_or_caps) {
        resume_owner_[p] = it->first;  // still owed service this round
      }
      break;
    }
  }
  return progressed;
}

std::map<int, IoScheduler::Owner>::iterator IoScheduler::NextInBand(
    std::map<int, Owner>::iterator it, int priority) {
  for (;; ++it) {
    if (it == owners_.end()) {
      it = owners_.begin();
    }
    if (it->second.priority == priority && !it->second.queue.empty()) {
      return it;
    }
  }
}

void IoScheduler::Pump() {
  const SimTime now = sim_->Now();
  SimTime earliest_retry = std::numeric_limits<SimTime>::max();

  bool progressed = true;
  while (outstanding_ < max_outstanding_ && progressed) {
    progressed = false;
    for (int priority = 0; priority < kNumPriorities && !progressed; ++priority) {
      progressed = ServeBand(priority, now, &earliest_retry);
    }
  }

  // Everything dispatchable went out; if requests remain blocked purely on
  // token buckets, wake up when the earliest becomes admissible. A cap change
  // can move that point earlier, so the armed wake is rescheduled rather than
  // left to fire late; when nothing is bucket-blocked, the stale wake leaves
  // the queue eagerly.
  if (earliest_retry != std::numeric_limits<SimTime>::max() &&
      outstanding_ < max_outstanding_) {
    // The wake clears its own handle on firing so no stale handle lingers
    // once the slot goes back to the slab.
    sim_->ScheduleOrTighten(retry_event_, earliest_retry, [this] {
      retry_event_ = EventHandle();
      Pump();
    });
  } else {
    sim_->CancelOwned(retry_event_);
  }
}

const OwnerIoStats& IoScheduler::Stats(int owner) const {
  static const OwnerIoStats kEmpty;
  auto it = owners_.find(owner);
  return it == owners_.end() ? kEmpty : it->second.stats;
}

}  // namespace perfiso
