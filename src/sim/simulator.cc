#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/util/logging.h"

namespace perfiso {

namespace {

// Engine-validation failures abort: a violated invariant means the simulation
// state is already unreliable, and the determinism contract makes limping on
// worse than dying loudly. The "SimSan:" prefix is what the death tests match.
[[noreturn]] void EngineDie(const char* what, const std::string& detail) {
  std::fprintf(stderr, "SimSan: %s: %s\n", what, detail.c_str());
  std::abort();
}

#ifdef PERFISO_SIMSAN
constexpr unsigned char kSimSanPoisonByte = 0xA5;
#endif

// Bits at positions >= b of a 64-bit word; safe for b == 64 (shift by the
// word width is UB, so gate it).
inline uint64_t MaskFrom(uint32_t b) { return b >= 64 ? 0 : ~0ull << b; }

}  // namespace

#ifdef PERFISO_SIMSAN
void EventCallback::SimSanPoison() {
  assert(invoke_ == nullptr);
  std::memset(inline_buf_, kSimSanPoisonByte, kInlineBytes);
}

bool EventCallback::SimSanPoisonIntact() const {
  if (invoke_ != nullptr || destroy_ != nullptr || heap_ != nullptr) {
    return false;
  }
  for (unsigned char byte : inline_buf_) {
    if (byte != kSimSanPoisonByte) {
      return false;
    }
  }
  return true;
}
#endif

Simulator::Simulator() {
  std::fill(wheel_, wheel_ + kWheelTotalSlots, kNilId);
  // Stamp log messages from this thread with this simulator's virtual time
  // for as long as it lives; the displaced clock (an outer simulator's, or
  // none) comes back on destruction.
  const SimClockRegistration previous = SetThreadSimClock(
      [](const void* ctx) {
        return static_cast<uint64_t>(static_cast<const Simulator*>(ctx)->Now());
      },
      this);
  prev_log_clock_fn_ = previous.fn;
  prev_log_clock_ctx_ = previous.ctx;
}

Simulator::~Simulator() {
  ClearThreadSimClock(SimClockRegistration{prev_log_clock_fn_, prev_log_clock_ctx_});
}

SimTime Simulator::ClampToNow(SimTime when) {
  if (when >= now_) {
    return when;
  }
  ++stats_.clamped_schedules;
#ifndef NDEBUG
  PERFISO_LOG(kDebug) << "Schedule at t=" << when << " is " << (now_ - when)
                      << " ns in the past; clamped to Now()=" << now_;
#endif
  return now_;
}

uint32_t Simulator::AllocSlot() {
  if (free_ids_.empty()) {
    const auto base = static_cast<uint32_t>(slabs_.size()) << kSlabBits;
    slabs_.push_back(std::make_unique<Event[]>(kSlabSize));
    ++stats_.slab_allocs;
    free_ids_.reserve(kSlabSize);
    // Push in descending order so slots hand out in ascending id order.
    for (uint32_t i = kSlabSize; i > 0; --i) {
      free_ids_.push_back(base + i - 1);
#ifdef PERFISO_SIMSAN
      Event& fresh = Rec(base + i - 1);
      fresh.cb.SimSanPoison();
      fresh.simsan_in_free_list = true;
#endif
    }
  }
  const uint32_t id = free_ids_.back();
  free_ids_.pop_back();
#ifdef PERFISO_SIMSAN
  Event& e = Rec(id);
  if (!e.cb.SimSanPoisonIntact()) {
    EngineDie("use-after-recycle",
              "freed event record " + std::to_string(id) +
                  " was written while on the free list (stale reference scribble)");
  }
  e.simsan_in_free_list = false;
#endif
  return id;
}

void Simulator::FreeSlot(uint32_t id) {
#ifdef PERFISO_SIMSAN
  Event& e = Rec(id);
  if (e.simsan_in_free_list) {
    EngineDie("double-free", "event slot " + std::to_string(id) + " freed twice");
  }
  e.cb.SimSanPoison();
  e.simsan_in_free_list = true;
#endif
  free_ids_.push_back(id);
}

#ifdef PERFISO_SIMSAN
void Simulator::SimSanNoteEnded(Event& e, uint8_t how) {
  e.simsan_ended_gen = e.gen;  // the generation outstanding handles carry
  e.simsan_ended_how = how;
}

void Simulator::SimSanDiagnoseStale(EventHandle handle, const char* op) const {
  if (handle.id_ == EventHandle::kInvalidId) {
    return;  // default-constructed handles are inert by design
  }
  const uint32_t capacity = static_cast<uint32_t>(slabs_.size()) << kSlabBits;
  if (handle.id_ >= capacity) {
    EngineDie(op, "EventHandle id " + std::to_string(handle.id_) +
                      " is out of range (handle from another Simulator, or corrupt)");
  }
  const Event& e = Rec(handle.id_);
  const std::string where = "slot " + std::to_string(handle.id_) + " handle-gen " +
                            std::to_string(handle.gen_) + " slot-gen " + std::to_string(e.gen) +
                            " at t=" + std::to_string(now_);
  const bool armed =
      e.where == kWhereWheel || e.where == kWhereOverflow || e.where == kWhereBatch;
  if (armed) {
    // The slot is armed again under a different generation: the caller's
    // event is long gone and this handle now aliases someone else's event.
    // Without generation counters this would cancel a stranger's event.
    EngineDie("stale-handle-after-recycle",
              std::string(op) + " through a handle whose slot was recycled and re-armed (" +
                  where + "); the owner must clear its handle when the event fires "
                  "(use Simulator::CancelOwned / reset stored handles)");
  }
  if (e.gen - handle.gen_ > 1) {
    EngineDie("stale-handle-after-recycle",
              std::string(op) + " through a handle whose slot was recycled (" + where + ")");
  }
  // e.gen == handle.gen_ + 1: the handle's own event ended exactly once since
  // the handle was minted. Fired is the documented benign-stale case;
  // cancelled means the caller is cancelling (or moving) the same event twice.
  if (e.simsan_ended_how == Event::kEndedCancelled) {
    EngineDie("double-cancel", std::string(op) + " through a handle that was already "
                                   "cancelled (" + where + ")");
  }
}
#endif

Simulator::Event* Simulator::Lookup(EventHandle handle) {
  return const_cast<Event*>(std::as_const(*this).Lookup(handle));
}

const Simulator::Event* Simulator::Lookup(EventHandle handle) const {
  if (handle.id_ >= (static_cast<uint32_t>(slabs_.size()) << kSlabBits)) {
    return nullptr;
  }
  const Event& e = Rec(handle.id_);
  if (e.gen != handle.gen_ ||
      (e.where != kWhereWheel && e.where != kWhereOverflow && e.where != kWhereBatch)) {
    return nullptr;
  }
  return &e;
}

bool Simulator::Pending(EventHandle handle) const { return Lookup(handle) != nullptr; }

bool Simulator::Cancel(EventHandle handle) {
  Event* e = Lookup(handle);
  if (e == nullptr) {
#ifdef PERFISO_SIMSAN
    SimSanDiagnoseStale(handle, "Cancel");
#endif
    return false;
  }
  RemoveFromBand(*e);
#ifdef PERFISO_SIMSAN
  SimSanNoteEnded(*e, Event::kEndedCancelled);
#endif
  ++e->gen;  // any copies of the handle go stale (and any batch entry)
  e->cb.Reset();
  e->where = kWhereFree;
  FreeSlot(handle.id_);
  --pending_count_;
  ++stats_.events_cancelled;
  return true;
}

bool Simulator::Reschedule(EventHandle handle, SimTime when) {
  Event* e = Lookup(handle);
  if (e == nullptr) {
#ifdef PERFISO_SIMSAN
    SimSanDiagnoseStale(handle, "Reschedule");
#endif
    return false;
  }
  RemoveFromBand(*e);
  e->time = ClampToNow(when);
  // A fresh seq orders the moved event as a new scheduling decision among
  // same-time events; it also invalidates a batch-resident record's old
  // scratch entry, since the batch validates (gen, seq) at fire time.
  e->seq = next_seq_++;
  Insert(handle.id_, *e);
  return true;
}

// --- Two-band clock advancement and dispatch ---------------------------------

int Simulator::NextOccupied(int level, uint32_t from) const {
  if (level == 0) {
    if (from >= kWheelSlotCount[0]) {
      return -1;
    }
    uint32_t word = from >> 6;
    const uint64_t bits = occ0_[word] & (~0ull << (from & 63));
    if (bits != 0) {
      return static_cast<int>((word << 6) + std::countr_zero(bits));
    }
    const uint64_t summary = occ0_summary_ & MaskFrom(word + 1);
    if (summary == 0) {
      return -1;
    }
    word = static_cast<uint32_t>(std::countr_zero(summary));
    return static_cast<int>((word << 6) + std::countr_zero(occ0_[word]));
  }
  const uint64_t bits = occ_hi_[level - 1] & MaskFrom(from);
  if (bits == 0) {
    return -1;
  }
  return std::countr_zero(bits);
}

void Simulator::Cascade(int level, uint32_t slot) {
  uint32_t id = Head(level, slot);
  if (id == kNilId) {
    return;
  }
  Head(level, slot) = kNilId;
  OccClear(level, slot);
  while (id != kNilId) {
    Event& e = Rec(id);
    const uint32_t next = e.next;  // Insert overwrites the links
    Insert(id, e);
    ++stats_.wheel_cascades;
    id = next;
  }
}

void Simulator::SetClockTo(SimTime t) {
  const SimTime old = now_;
  if (t == old) {
    return;
  }
  assert(t > old && "simulated time must be monotonic");
  now_ = t;
  if ((t >> kWheelHorizonBits) != (old >> kWheelHorizonBits)) {
    // The clock entered a new horizon page: pull the far-band events that now
    // fall inside it. The heap minimum is the earliest pending event overall
    // here (callers only jump the clock when every structure position behind
    // the target is empty), so no overflow resident can predate t's page.
    while (!heap_.empty() &&
           (heap_.front().time >> kWheelHorizonBits) == (t >> kWheelHorizonBits)) {
      const uint32_t id = heap_.front().id;
      HeapRemoveAt(0);
      Event& e = Rec(id);
      e.heap_pos = -1;
      Insert(id, e);
      ++stats_.overflow_pulls;
    }
  }
  // Cascade the one bucket per level that just became the current page.
  // Buckets between the old and new cursor would hold events earlier than t,
  // which the caller guarantees do not exist — they are provably empty.
  // Top-down so a level-2 bucket can redistribute through level 1.
  for (int level = kWheelLevels - 1; level >= 1; --level) {
    const int shift = kWheelShift[level];
    if ((t >> shift) != (old >> shift)) {
      Cascade(level, static_cast<uint32_t>(t >> shift) & kWheelSlotMask[level]);
    }
  }
}

void Simulator::DrainSlot(uint32_t slot) {
  assert(batch_pos_ == batch_.size() && "draining over an unconsumed batch");
  uint32_t id = Head(0, slot);
  Head(0, slot) = kNilId;
  OccClear(0, slot);
  batch_.clear();
  batch_pos_ = 0;
  while (id != kNilId) {
    Event& e = Rec(id);
    assert(e.time == now_ && "level-0 slot holds a record of another timestamp");
    e.where = kWhereBatch;
    batch_.push_back(BatchItem{e.seq, id, e.gen});
    id = e.next;
  }
  // One level-0 slot == one timestamp, so sorting by seq alone recovers the
  // exact (time, seq) total order the heap engine produced.
  if (batch_.size() > 1) {
    std::sort(batch_.begin(), batch_.end(),
              [](const BatchItem& a, const BatchItem& b) { return a.seq < b.seq; });
  }
  ++stats_.batch_drains;
}

bool Simulator::DrainNextSlot(SimTime cap) {
  for (;;) {
    // Level 0 first: the next occupied slot at or after the cursor holds the
    // earliest pending timestamp (everything behind the cursor already fired,
    // and higher bands only hold later times).
    const uint32_t cur0 = static_cast<uint32_t>(now_) & kWheelSlotMask[0];
    int s = NextOccupied(0, cur0);
    if (s >= 0) {
      const SimTime slot_time = (now_ & ~static_cast<SimTime>(kWheelSlotMask[0])) | s;
      if (slot_time > cap) {
        return false;
      }
      now_ = slot_time;  // same level-0 page: no cascade work
      DrainSlot(static_cast<uint32_t>(s));
      return true;
    }
    // Higher levels: jump to the base of the next occupied bucket and cascade
    // it down, then rescan. The bucket at the cursor itself is impossible —
    // its records' lower-level page would match the clock's, so they would
    // live in a lower level — hence cur + 1.
    bool advanced = false;
    for (int level = 1; level < kWheelLevels; ++level) {
      const int shift = kWheelShift[level];
      const uint32_t cur = static_cast<uint32_t>(now_ >> shift) & kWheelSlotMask[level];
      s = NextOccupied(level, cur + 1);
      if (s >= 0) {
        const SimTime page_mask = (static_cast<SimTime>(1) << kWheelShift[level + 1]) - 1;
        const SimTime base = (now_ & ~page_mask) | (static_cast<SimTime>(s) << shift);
        if (base > cap) {
          return false;  // every band below is empty, so nothing is due by cap
        }
        SetClockTo(base);
        advanced = true;
        break;
      }
    }
    if (advanced) {
      continue;
    }
    // Whole wheel empty: jump to the horizon page of the far-band minimum.
    if (heap_.empty()) {
      return false;
    }
    const SimTime horizon_mask = (static_cast<SimTime>(1) << kWheelHorizonBits) - 1;
    const SimTime base = heap_.front().time & ~horizon_mask;
    if (base > cap) {
      return false;
    }
    SetClockTo(base);
  }
}

void Simulator::Fire(uint32_t id, Event& e) {
  assert(e.time == now_ && "firing a record away from its timestamp");
  e.where = kWhereFiring;
#ifdef PERFISO_SIMSAN
  SimSanNoteEnded(e, Event::kEndedFired);
#endif
  ++e.gen;  // the handle is stale from the moment the callback runs
  --pending_count_;
  ++stats_.events_executed;
  // The record's slab address is stable, so the callback may freely schedule
  // (growing the pool) or cancel other events while it runs. Its own slot is
  // recycled only after the callback finishes and is destroyed.
#ifdef PERFISO_SIMSAN
  simsan_in_callback_ = true;
#endif
  e.cb.Invoke();
#ifdef PERFISO_SIMSAN
  simsan_in_callback_ = false;
#endif
  e.cb.Reset();
  e.where = kWhereFree;
  FreeSlot(id);
#ifdef PERFISO_SIMSAN
  if (stats_.events_executed % kSimSanSweepInterval == 0) {
    CheckEngineInvariants();
  }
#endif
}

bool Simulator::Step() {
  for (;;) {
    while (batch_pos_ < batch_.size()) {
      const BatchItem item = batch_[batch_pos_++];
      Event& e = Rec(item.id);
      if (e.where != kWhereBatch || e.gen != item.gen || e.seq != item.seq) {
        continue;  // cancelled or rescheduled after the drain
      }
      Fire(item.id, e);
      return true;
    }
    if (!DrainNextSlot(std::numeric_limits<SimTime>::max())) {
      return false;
    }
  }
}

void Simulator::RunUntil(SimTime until) {
  while (now_ <= until) {
    bool fired = false;
    while (batch_pos_ < batch_.size()) {
      const BatchItem item = batch_[batch_pos_++];
      Event& e = Rec(item.id);
      if (e.where != kWhereBatch || e.gen != item.gen || e.seq != item.seq) {
        continue;
      }
      Fire(item.id, e);
      fired = true;
      break;
    }
    if (fired) {
      continue;
    }
    if (!DrainNextSlot(until)) {
      break;
    }
  }
  if (now_ < until) {
    SetClockTo(until);
  }
}

void Simulator::RunUntilEmpty() {
  while (Step()) {
  }
}

void Simulator::CheckEngineInvariants() const {
  const size_t capacity = slabs_.size() * kSlabSize;

  // Near band: bucket-list/bitmap consistency and placement against the clock.
  for (uint32_t word = 0; word < kWheelSlotCount[0] / 64; ++word) {
    const bool summarized = ((occ0_summary_ >> word) & 1) != 0;
    if (summarized != (occ0_[word] != 0)) {
      EngineDie("wheel-bitmap-summary", "level-0 summary bit " + std::to_string(word) +
                                            " disagrees with its occupancy word");
    }
  }
  size_t wheel_count = 0;
  for (int level = 0; level < kWheelLevels; ++level) {
    const int shift = kWheelShift[level];
    const int page_shift = kWheelShift[level + 1];
    const uint32_t cur = static_cast<uint32_t>(now_ >> shift) & kWheelSlotMask[level];
    for (uint32_t slot = 0; slot < kWheelSlotCount[level]; ++slot) {
      const uint32_t head = Head(level, slot);
      const bool occupied = OccTest(level, slot);
      if (occupied != (head != kNilId)) {
        EngineDie("wheel-bitmap", "level " + std::to_string(level) + " slot " +
                                      std::to_string(slot) +
                                      " occupancy bit disagrees with its bucket list");
      }
      uint32_t prev = kNilId;
      for (uint32_t id = head; id != kNilId;) {
        if (id >= capacity) {
          EngineDie("wheel-list-range", "bucket list id " + std::to_string(id) + " out of range");
        }
        const Event& e = Rec(id);
        const std::string who = "record " + std::to_string(id) + " at level " +
                                std::to_string(level) + " slot " + std::to_string(slot);
        if (e.where != kWhereWheel || e.level != level || e.slot != slot) {
          EngineDie("wheel-band-tag", who + " carries a band tag for another home");
        }
        if (e.prev != prev) {
          EngineDie("wheel-backlink", who + " back-link broken");
        }
        if (!e.cb.armed()) {
          EngineDie("unarmed-pending-event", who + " is queued without a callback");
        }
        if (e.time < now_) {
          EngineDie("time-travel", who + " is queued at t=" + std::to_string(e.time) +
                                       " < Now()=" + std::to_string(now_));
        }
        if ((e.time >> page_shift) != (now_ >> page_shift) ||
            (static_cast<uint32_t>(e.time >> shift) & kWheelSlotMask[level]) != slot) {
          EngineDie("wheel-placement", who + " sits in the wrong page or slot for t=" +
                                           std::to_string(e.time));
        }
        if (level > 0 && slot <= cur) {
          // Its level-(L-1) page would match the clock's, so it belongs below.
          EngineDie("wheel-placement", who + " sits at or behind the level cursor");
        }
        ++wheel_count;
        prev = id;
        id = e.next;
      }
    }
  }

  // Far band: heap property, record back-pointers, and horizon placement.
  for (size_t pos = 0; pos < heap_.size(); ++pos) {
    const HeapItem& item = heap_[pos];
    if (pos > 0 && Before(item, heap_[(pos - 1) >> 2])) {
      EngineDie("heap-property", "heap position " + std::to_string(pos) +
                                     " orders before its parent");
    }
    const Event& e = Rec(item.id);
    if (e.where != kWhereOverflow || e.heap_pos != static_cast<int32_t>(pos)) {
      EngineDie("heap-backpointer", "record " + std::to_string(item.id) + " heap_pos " +
                                        std::to_string(e.heap_pos) + " != position " +
                                        std::to_string(pos));
    }
    if (e.time != item.time || e.seq != item.seq) {
      EngineDie("heap-key-mismatch",
                "record " + std::to_string(item.id) + " (time, seq) disagrees with its heap item");
    }
    if (!e.cb.armed()) {
      EngineDie("unarmed-pending-event",
                "record " + std::to_string(item.id) + " is queued without a callback");
    }
    if ((e.time >> kWheelHorizonBits) == (now_ >> kWheelHorizonBits)) {
      EngineDie("overflow-inside-horizon", "record " + std::to_string(item.id) + " at t=" +
                                               std::to_string(e.time) +
                                               " belongs in the wheel, not the far band");
    }
  }

  // Dispatch batch: unconsumed valid entries are pending records at Now().
  // Invalidated entries (cancel/reschedule after the drain) are skipped here
  // exactly as the fire loop skips them.
  size_t batch_valid = 0;
  for (size_t pos = batch_pos_; pos < batch_.size(); ++pos) {
    const BatchItem& item = batch_[pos];
    if (item.id >= capacity) {
      EngineDie("batch-range", "batch entry id " + std::to_string(item.id) + " out of range");
    }
    const Event& e = Rec(item.id);
    if (e.where != kWhereBatch || e.gen != item.gen || e.seq != item.seq) {
      continue;
    }
    if (e.time != now_) {
      EngineDie("batch-time", "batch record " + std::to_string(item.id) + " at t=" +
                                  std::to_string(e.time) + " != Now()=" + std::to_string(now_));
    }
    if (!e.cb.armed()) {
      EngineDie("unarmed-pending-event",
                "batch record " + std::to_string(item.id) + " is queued without a callback");
    }
    ++batch_valid;
  }

  // Free-list consistency and slot conservation.
  for (const uint32_t id : free_ids_) {
    if (id >= capacity) {
      EngineDie("free-list-range", "free id " + std::to_string(id) + " out of range");
    }
    const Event& e = Rec(id);
    if (e.where != kWhereFree) {
      EngineDie("free-while-queued", "free slot " + std::to_string(id) + " is still queued");
    }
#ifdef PERFISO_SIMSAN
    if (!e.simsan_in_free_list) {
      EngineDie("free-list-flag", "slot " + std::to_string(id) +
                                      " is on the free list but not flagged as free");
    }
    if (!e.cb.SimSanPoisonIntact()) {
      EngineDie("use-after-recycle", "freed event record " + std::to_string(id) +
                                         " was written while on the free list");
    }
#endif
  }
  size_t executing = 0;
#ifdef PERFISO_SIMSAN
  executing = simsan_in_callback_ ? 1 : 0;
#endif
  const size_t pending = wheel_count + heap_.size() + batch_valid;
  if (pending + free_ids_.size() + executing != capacity) {
    EngineDie("slot-conservation", "pending " + std::to_string(pending) + " + free " +
                                       std::to_string(free_ids_.size()) + " + executing " +
                                       std::to_string(executing) + " != capacity " +
                                       std::to_string(capacity));
  }
  if (pending_count_ != pending) {
    EngineDie("pending-count", "cached pending count " + std::to_string(pending_count_) +
                                   " != structural count " + std::to_string(pending));
  }
}

// --- 4-ary overflow heap -----------------------------------------------------

void Simulator::Place(size_t pos, const HeapItem& item) {
  heap_[pos] = item;
  Rec(item.id).heap_pos = static_cast<int32_t>(pos);
}

void Simulator::SiftUp(size_t pos) {
  const HeapItem item = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) >> 2;
    if (!Before(item, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, item);
}

void Simulator::SiftDown(size_t pos) {
  const HeapItem item = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * pos + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = std::min(first + 4, n);
    for (size_t child = first + 1; child < last; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], item)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, item);
}

void Simulator::HeapPush(uint32_t id, SimTime time, uint64_t seq) {
  heap_.push_back(HeapItem{time, seq, id});
  Rec(id).heap_pos = static_cast<int32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
}

void Simulator::HeapRemoveAt(size_t pos) {
  assert(pos < heap_.size());
  const size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const HeapItem moved = heap_[last];
  heap_.pop_back();
  Place(pos, moved);
  SiftDown(pos);
  if (heap_[pos].id == moved.id) {
    SiftUp(pos);  // did not move down; may need to move up
  }
}

// --- PeriodicTask ------------------------------------------------------------

PeriodicTask::PeriodicTask(Simulator* sim, SimTime start, SimDuration period, TickFn on_tick)
    : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {
  assert(period > 0);
  Arm(start);
}

void PeriodicTask::Cancel() {
  if (cancelled_) {
    // Idempotent: the destructor calls Cancel() too, and by then the armed
    // event's slot may have been recycled — touching it again would be the
    // exact stale-handle bug SimSan exists to catch.
    return;
  }
  cancelled_ = true;
  sim_->CancelOwned(event_);  // no-op when called from inside the tick (already fired)
}

void PeriodicTask::Arm(SimTime when) {
  event_ = sim_->Schedule(when, [this] {
    on_tick_(sim_->Now());
    if (!cancelled_) {  // the tick may have cancelled us
      Arm(sim_->Now() + period_);
    }
  });
}

}  // namespace perfiso
