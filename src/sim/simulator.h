// Discrete-event simulation engine.
//
// A Simulator owns virtual time and a two-band scheduler over pooled event
// records. Events scheduled at the same timestamp fire in scheduling order
// (FIFO, via a monotonically increasing sequence number), which keeps runs
// deterministic. All higher layers (machines, disks, networks, the PerfIso
// controller) schedule plain callbacks here.
//
// Engine design (see DESIGN.md §"Two-band scheduler"):
//   * Event records live in fixed-size slabs and are recycled through a free
//     list, so the steady-state Schedule/fire path performs no heap
//     allocation. Callbacks are stored with a small-buffer optimization
//     inside the record; callables larger than EventCallback::kInlineBytes
//     fall back to one counted heap allocation.
//   * Every Schedule returns an EventHandle (slot id + generation). Handles
//     make cancellation first-class: Cancel() removes the event from its band
//     eagerly instead of letting it fire as a dead no-op, and Reschedule()
//     moves it. A handle goes stale the moment its event fires, is cancelled,
//     or is superseded; stale handles are safe to pass anywhere.
//   * Near band: a hierarchical timing wheel — 3 levels of power-of-two
//     buckets covering absolute-time bit ranges [0,12), [12,18), [18,24):
//     4096 one-nanosecond level-0 slots (wide enough that microsecond-scale
//     work deltas insert directly at level 0), then 64 slots each at levels
//     1 and 2. Each bucket is an intrusive doubly-linked list through the
//     records with an occupancy bitmap per level (level 0 adds a one-word
//     summary over its 64 bitmap words, so a scan is two countr_zeros).
//     Insert, cancel, and reschedule of a wheel-resident record are O(1);
//     this is the band that absorbs the cancel-heavy timer traffic (hedge
//     timers, I/O deadlines, slice preemptions). Pages are aligned (slot
//     indexes derive from absolute time bits), so a level-0 slot holds
//     records of exactly one timestamp.
//   * Far band: a 4-ary (time, seq) overflow min-heap for events beyond the
//     wheel horizon (2^24 ns ≈ 16.8 ms); records cascade into the wheel as
//     the clock crosses page boundaries.
//   * Batched dispatch: the due level-0 slot is drained into a contiguous
//     scratch vector, sorted by seq (one slot == one timestamp), and fired
//     without touching the wheel or heap between callbacks. Cancelling or
//     rescheduling a batch-resident record invalidates its scratch entry via
//     the (generation, seq) pair, so the (time, seq) total order is exactly
//     the one the previous 4-ary-heap engine produced — golden digests are
//     bit-identical.
//   * -DPERFISO_SIMSAN=ON compiles in SimSan, the engine-validation mode
//     (see DESIGN.md §"Determinism rules & SimSan"): stale-handle
//     Cancel/Reschedule after a slot recycle aborts with a diagnostic instead
//     of silently returning false, double-cancel aborts, freed records are
//     poisoned and checked on reuse, and engine invariants (wheel-list and
//     bitmap consistency, placement, heap property, conservation) are swept
//     periodically. All of it lives behind #ifdef PERFISO_SIMSAN, so the
//     normal build carries zero overhead.
#ifndef PERFISO_SRC_SIM_SIMULATOR_H_
#define PERFISO_SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/inline_fn.h"
#include "src/util/sim_time.h"

namespace perfiso {

class Simulator;

// True when the engine was built with -DPERFISO_SIMSAN=ON; lets tests select
// between "aborts with a diagnostic" and "silently returns false" behavior.
#ifdef PERFISO_SIMSAN
inline constexpr bool kSimSanEnabled = true;
#else
inline constexpr bool kSimSanEnabled = false;
#endif

// Refers to one scheduled event: a pooled slot id plus the generation the
// slot had when the event was scheduled. Default-constructed (and stale)
// handles are inert: Cancel/Reschedule/Pending on them return false.
class EventHandle {
 public:
  EventHandle() = default;

  // True when minted by a Schedule call and not reset since; says nothing
  // about whether the event is still pending (see Simulator::Pending).
  bool valid() const { return id_ != kInvalidId; }

 private:
  friend class Simulator;
  static constexpr uint32_t kInvalidId = 0xffffffffu;

  EventHandle(uint32_t id, uint32_t gen) : id_(id), gen_(gen) {}

  uint32_t id_ = kInvalidId;
  uint32_t gen_ = 0;
};

// Move-less callback slot embedded in each pooled event record. Callables up
// to kInlineBytes are constructed in place; larger ones take a single heap
// allocation, counted in Simulator::Stats so benches can verify the hot-path
// layers stay inline.
class EventCallback {
 public:
  // Sized so a capture of [this plus up to six words of handles and
  // scalars] — the largest shape the hot layers use — still fits inline.
  static constexpr size_t kInlineBytes = 56;

  EventCallback() = default;
  ~EventCallback() { Reset(); }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  template <typename Fn>
  void Emplace(Fn&& fn, uint64_t* heap_allocs) {
    using Decayed = std::decay_t<Fn>;
    static_assert(std::is_invocable_r_v<void, Decayed&>,
                  "event callbacks must be invocable with no arguments");
    assert(invoke_ == nullptr);
    if constexpr (sizeof(Decayed) <= kInlineBytes &&
                  alignof(Decayed) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(inline_buf_)) Decayed(std::forward<Fn>(fn));
      destroy_ = [](void* p) { static_cast<Decayed*>(p)->~Decayed(); };
    } else {
      heap_ = new Decayed(std::forward<Fn>(fn));
      destroy_ = [](void* p) { delete static_cast<Decayed*>(p); };
      ++*heap_allocs;
    }
    invoke_ = [](void* p) { (*static_cast<Decayed*>(p))(); };
  }

  void Invoke() { invoke_(target()); }

  void Reset() {
    if (invoke_ != nullptr) {
      destroy_(target());
      invoke_ = nullptr;
      destroy_ = nullptr;
      heap_ = nullptr;
    }
  }

  bool armed() const { return invoke_ != nullptr; }

#ifdef PERFISO_SIMSAN
  // Freed records are filled with a poison pattern; a scribble through a
  // stale reference (or an engine bug) is caught when the slot is reused.
  void SimSanPoison();
  bool SimSanPoisonIntact() const;
#endif

 private:
  void* target() { return heap_ != nullptr ? heap_ : static_cast<void*>(inline_buf_); }

  alignas(std::max_align_t) unsigned char inline_buf_[kInlineBytes];
  void* heap_ = nullptr;
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `when` (clamped to Now() if in the past;
  // clamps are counted in stats and logged in debug builds). Returns a handle
  // that can cancel or move the event while it is still pending.
  template <typename Fn>
  EventHandle Schedule(SimTime when, Fn&& fn) {
    const uint32_t id = AllocSlot();
    Event& e = Rec(id);
    e.time = ClampToNow(when);
    e.seq = next_seq_++;
    e.cb.Emplace(std::forward<Fn>(fn), &stats_.callback_heap_allocs);
    Insert(id, e);
    ++pending_count_;
    ++stats_.events_scheduled;
    return EventHandle(id, e.gen);
  }

  // Schedules `fn` after a relative delay.
  template <typename Fn>
  EventHandle ScheduleAfter(SimDuration delay, Fn&& fn) {
    return Schedule(now_ + delay, std::forward<Fn>(fn));
  }

  // Removes a pending event from the queue (its callback is destroyed, not
  // run). Returns false — and does nothing — if the handle is stale: default
  // constructed, already fired, already cancelled, or superseded. Under
  // SimSan, a cancel through a handle whose slot was recycled (or that was
  // already cancelled) aborts with a diagnostic instead.
  bool Cancel(EventHandle handle);

  // Cancel for a handle the caller *owns* (a member it stores and re-arms):
  // cancels, then resets `handle` to the default stale state so no copy of a
  // dead handle lingers in the owner. This is the handle-hygiene primitive
  // SimSan enforces — a lingering fired/cancelled handle is safe only until
  // its slot recycles. Returns whether a pending event was cancelled.
  bool CancelOwned(EventHandle& handle) {
    const bool cancelled = Cancel(handle);
    handle = EventHandle();
    return cancelled;
  }

  // Moves a pending event to `when` (clamped like Schedule). The event keeps
  // its callback and its handle but is ordered as a fresh scheduling decision
  // among same-time events. Returns false on a stale handle.
  bool Reschedule(EventHandle handle, SimTime when);

  // The arm-or-tighten idiom shared by deadline timers (bucket-retry wakes,
  // budget-exhaustion checks): if `handle` is stale, schedules `fn` at `when`
  // and stores the new handle; if it is pending later than `when`, pulls it
  // earlier. Never delays an armed event, and never stacks a second one.
  template <typename Fn>
  void ScheduleOrTighten(EventHandle& handle, SimTime when, Fn&& fn) {
    if (const Event* e = Lookup(handle)) {
      if (e->time > when) {
        Reschedule(handle, when);
      }
      return;
    }
    handle = Schedule(when, std::forward<Fn>(fn));
  }

  // True while the event is still in the queue.
  bool Pending(EventHandle handle) const;

  // Runs the earliest pending event. Returns false if none are pending.
  bool Step();

  // Runs all events with time <= `until`, then advances the clock to `until`.
  void RunUntil(SimTime until);

  // Runs until no events remain. Use only with workloads that terminate.
  void RunUntilEmpty();

  struct Stats {
    uint64_t events_executed = 0;
    uint64_t events_scheduled = 0;
    uint64_t events_cancelled = 0;
    // Schedule() calls whose timestamp was in the past and got clamped to
    // Now(). Nonzero values point at a mis-scheduling layer.
    uint64_t clamped_schedules = 0;
    // Callbacks too large for the record's inline buffer (one heap
    // allocation each). The hot layers should keep this at zero.
    uint64_t callback_heap_allocs = 0;
    // Event-pool slab allocations (pool growth; flat once warmed up).
    uint64_t slab_allocs = 0;
    // Two-band scheduler traffic: records redistributed from a higher wheel
    // level into a lower one (each record cascades at most kWheelLevels - 1
    // times), and records pulled from the far-band overflow heap into the
    // wheel.
    uint64_t wheel_cascades = 0;
    uint64_t overflow_pulls = 0;
  };
  const Stats& stats() const { return stats_; }

  // Number of events executed since construction.
  uint64_t EventsExecuted() const { return stats_.events_executed; }
  // Pending (live) events only: cancelled events leave their band eagerly.
  size_t PendingEvents() const { return pending_count_; }
  // Far-band residents right now (events beyond the wheel horizon).
  size_t OverflowEvents() const { return heap_.size(); }

  // Full engine-state validation: wheel-list and bitmap consistency, band
  // placement against the current clock, overflow-heap property and record
  // back-pointers, batch-entry validity, free-list consistency, slot
  // conservation, and (under SimSan) poison integrity of freed records.
  // Aborts with a diagnostic on any violation. SimSan builds run this
  // automatically every kSimSanSweepInterval executed events; in normal
  // builds it is available for tests but never runs implicitly. Call from
  // outside event callbacks.
  void CheckEngineInvariants() const;

#ifdef PERFISO_SIMSAN
  // Executed events between automatic invariant sweeps (the engine has no
  // scheduler-quantum notion of its own; this is its "per quantum" cadence).
  static constexpr uint64_t kSimSanSweepInterval = 1024;
#endif

 private:
  // 256 event records per slab. Slab storage is stable (records never move),
  // so callbacks may safely schedule/cancel while one of them runs.
  static constexpr uint32_t kSlabBits = 8;
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;
  static constexpr uint32_t kNilId = 0xffffffffu;

  // Wheel geometry: level L buckets are 2^kWheelShift[L] ns wide and a level
  // covers absolute-time bits [kWheelShift[L], kWheelShift[L+1]). Level 0 is
  // deliberately wide (4096 slots) so that microsecond-scale deltas — the
  // common work/timer spacing — insert directly into level 0 instead of
  // paying a level-1 insert plus a cascade. The wheel horizon (beyond which
  // events overflow to the far-band heap) is one level-2 page: 2^24 ns
  // ≈ 16.8 ms. Pages are aligned to absolute-time bit boundaries, so within
  // a page slot indexes only increase and a level-0 slot holds records of
  // exactly one timestamp.
  static constexpr int kWheelLevels = 3;
  static constexpr int kWheelShift[kWheelLevels + 1] = {0, 12, 18, 24};
  static constexpr uint32_t kWheelSlotCount[kWheelLevels] = {4096, 64, 64};
  static constexpr uint32_t kWheelSlotMask[kWheelLevels] = {4095, 63, 63};
  static constexpr uint32_t kWheelSlotBase[kWheelLevels] = {0, 4096, 4096 + 64};
  static constexpr uint32_t kWheelTotalSlots = 4096 + 64 + 64;
  static constexpr int kWheelHorizonBits = kWheelShift[kWheelLevels];

  // Which structure currently holds a record. kWhereBatch means the record
  // sits in the dispatch scratch vector (drained from its level-0 slot but
  // not yet fired); it still counts as pending.
  enum Where : uint8_t {
    kWhereFree = 0,
    kWhereWheel,
    kWhereOverflow,
    kWhereBatch,
    kWhereFiring,
  };

  struct Event {
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t gen = 0;
    // Intrusive doubly-linked wheel-bucket list (record ids, kNilId ends).
    uint32_t next = kNilId;
    uint32_t prev = kNilId;
    int32_t heap_pos = -1;  // index into heap_ when where == kWhereOverflow
    uint8_t where = kWhereFree;
    uint8_t level = 0;   // wheel coordinates when where == kWhereWheel
    uint16_t slot = 0;
    EventCallback cb;
#ifdef PERFISO_SIMSAN
    // How the slot's most recent event ended, and the generation handles to
    // that event carried. Lets a stale Cancel/Reschedule distinguish the
    // documented benign case (the event fired) from latent lifetime bugs
    // (double-cancel, touch after the slot was recycled).
    enum : uint8_t { kNeverEnded = 0, kEndedFired = 1, kEndedCancelled = 2 };
    uint32_t simsan_ended_gen = 0;
    uint8_t simsan_ended_how = kNeverEnded;
    bool simsan_in_free_list = false;
#endif
  };

  struct HeapItem {
    SimTime time;
    uint64_t seq;
    uint32_t id;
  };

  // One drained (not yet fired) record: the (gen, seq) pair invalidates the
  // entry if the record is cancelled or rescheduled mid-batch. The entry's
  // timestamp is implicit — every record in a batch shares Now().
  struct BatchItem {
    uint64_t seq;
    uint32_t id;
    uint32_t gen;
  };

  static bool Before(const HeapItem& a, const HeapItem& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  Event& Rec(uint32_t id) { return slabs_[id >> kSlabBits][id & (kSlabSize - 1)]; }
  const Event& Rec(uint32_t id) const { return slabs_[id >> kSlabBits][id & (kSlabSize - 1)]; }

  // Returns the record iff `handle` refers to a still-pending event.
  Event* Lookup(EventHandle handle);
  const Event* Lookup(EventHandle handle) const;

  SimTime ClampToNow(SimTime when);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t id);
#ifdef PERFISO_SIMSAN
  // Called when Cancel/Reschedule sees a handle Lookup rejected: aborts with
  // a diagnostic if the staleness indicates a lifetime bug, returns for the
  // benign cases (default handle, event fired once since the handle was
  // minted).
  void SimSanDiagnoseStale(EventHandle handle, const char* op) const;
  void SimSanNoteEnded(Event& e, uint8_t how);
#endif

  // --- Two-band placement (hot path, kept inline) ---------------------------

  uint32_t& Head(int level, uint32_t slot) { return wheel_[kWheelSlotBase[level] + slot]; }
  const uint32_t& Head(int level, uint32_t slot) const {
    return wheel_[kWheelSlotBase[level] + slot];
  }

  void OccSet(int level, uint32_t slot) {
    if (level == 0) {
      occ0_[slot >> 6] |= 1ull << (slot & 63);
      occ0_summary_ |= 1ull << (slot >> 6);
    } else {
      occ_hi_[level - 1] |= 1ull << slot;
    }
  }

  void OccClear(int level, uint32_t slot) {
    if (level == 0) {
      if ((occ0_[slot >> 6] &= ~(1ull << (slot & 63))) == 0) {
        occ0_summary_ &= ~(1ull << (slot >> 6));
      }
    } else {
      occ_hi_[level - 1] &= ~(1ull << slot);
    }
  }

  bool OccTest(int level, uint32_t slot) const {
    if (level == 0) {
      return ((occ0_[slot >> 6] >> (slot & 63)) & 1) != 0;
    }
    return ((occ_hi_[level - 1] >> slot) & 1) != 0;
  }

  // Places a pending record into the band its timestamp belongs to, relative
  // to the current clock: the innermost wheel level whose page contains the
  // timestamp, or the overflow heap past the horizon.
  void Insert(uint32_t id, Event& e) {
    const SimTime t = e.time;
    for (int level = 0; level < kWheelLevels; ++level) {
      if ((t >> kWheelShift[level + 1]) == (now_ >> kWheelShift[level + 1])) {
        WheelPush(level,
                  static_cast<uint32_t>(t >> kWheelShift[level]) & kWheelSlotMask[level], id, e);
        return;
      }
    }
    e.where = kWhereOverflow;
    HeapPush(id, t, e.seq);
  }

  // Pushes at the bucket head: O(1), no tail pointer. Bucket order is
  // irrelevant — the level-0 drain sorts its batch by seq, and higher levels
  // redistribute records one by one.
  void WheelPush(int level, uint32_t slot, uint32_t id, Event& e) {
    uint32_t& head = Head(level, slot);
    e.where = kWhereWheel;
    e.level = static_cast<uint8_t>(level);
    e.slot = static_cast<uint16_t>(slot);
    e.prev = kNilId;
    e.next = head;
    if (head != kNilId) {
      Rec(head).prev = id;
    }
    head = id;
    OccSet(level, slot);
  }

  void WheelUnlink(Event& e) {
    if (e.prev != kNilId) {
      Rec(e.prev).next = e.next;
    } else {
      uint32_t& head = Head(e.level, e.slot);
      head = e.next;
      if (e.next == kNilId) {
        OccClear(e.level, e.slot);
      }
    }
    if (e.next != kNilId) {
      Rec(e.next).prev = e.prev;
    }
  }

  // Detaches a pending record from whichever structure holds it. Batch
  // residents need no structural removal — the caller invalidates their
  // scratch entry by changing gen (cancel) or seq (reschedule).
  void RemoveFromBand(Event& e) {
    if (e.where == kWhereWheel) {
      WheelUnlink(e);
    } else if (e.where == kWhereOverflow) {
      HeapRemoveAt(static_cast<size_t>(e.heap_pos));
      e.heap_pos = -1;
    }
  }

  // --- Clock advancement / dispatch (simulator.cc) --------------------------

  // First occupied slot index >= `from` at `level`, or -1.
  int NextOccupied(int level, uint32_t from) const;
  // Advances the clock to `t` (monotonic), cascading the wheel slots and
  // overflow-heap page that become current. Only called with `t` at or below
  // the earliest pending timestamp, so every slot skipped over is empty.
  void SetClockTo(SimTime t);
  // Redistributes one bucket into the bands below it (after the clock moved
  // into the bucket's page).
  void Cascade(int level, uint32_t slot);
  // Advances the clock to the earliest pending timestamp and drains its
  // level-0 slot into the dispatch batch. Returns false — without moving the
  // clock past `cap` — when the earliest pending event is after `cap` (or
  // nothing is pending).
  bool DrainNextSlot(SimTime cap);
  void DrainSlot(uint32_t slot);
  // Fires one validated batch record (the caller advanced the clock).
  void Fire(uint32_t id, Event& e);

  void HeapPush(uint32_t id, SimTime time, uint64_t seq);
  void HeapRemoveAt(size_t pos);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void Place(size_t pos, const HeapItem& item);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  // Log-stamp clock displaced by this simulator's registration (see
  // util/logging.h); restored on destruction so nested simulators unwind.
  uint64_t (*prev_log_clock_fn_)(const void*) = nullptr;
  const void* prev_log_clock_ctx_ = nullptr;
  Stats stats_;
  // Bucket heads (record ids), all levels packed: level L starts at
  // kWheelSlotBase[L]. Level 0's occupancy is 64 words plus a one-word
  // summary (bit w set iff occ0_[w] != 0); levels 1 and 2 have 64 slots
  // each, so one word per level suffices.
  uint32_t wheel_[kWheelTotalSlots];
  uint64_t occ0_[kWheelSlotCount[0] / 64] = {};
  uint64_t occ0_summary_ = 0;
  uint64_t occ_hi_[kWheelLevels - 1] = {};
  std::vector<HeapItem> heap_;  // far band (overflow)
  std::vector<BatchItem> batch_;
  size_t batch_pos_ = 0;
  size_t pending_count_ = 0;
  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::vector<uint32_t> free_ids_;
#ifdef PERFISO_SIMSAN
  // True while a callback runs: the executing record is in no band and not
  // on the free list, which the conservation sweep must tolerate.
  bool simsan_in_callback_ = false;
#endif
};

// A self-rescheduling task with cancellation, used for polling loops (the
// PerfIso controller polls utilization "continuously in a tight loop", §4.1).
// Destroying the task (or calling Cancel) removes the armed event from the
// queue eagerly. Two lifetime rules: the Simulator must outlive the task
// (Cancel reaches into the queue, so declare tasks after — or owned by —
// structures holding the Simulator), and a tick callback may call Cancel()
// on its own task but must not destroy the task object from inside the tick.
class PeriodicTask {
 public:
  using TickFn = InlineFn<void(SimTime)>;

  // Starts firing at `start` and then every `period`.
  PeriodicTask(Simulator* sim, SimTime start, SimDuration period, TickFn on_tick);
  ~PeriodicTask() { Cancel(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Cancel();
  bool cancelled() const { return cancelled_; }
  SimDuration period() const { return period_; }

 private:
  void Arm(SimTime when);

  Simulator* sim_;
  SimDuration period_;
  TickFn on_tick_;
  EventHandle event_;
  bool cancelled_ = false;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_SIM_SIMULATOR_H_
