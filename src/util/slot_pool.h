// SlotPool<T>: the record table behind the per-request records the
// simulation owns for a bounded lifetime — a query at an IndexServer or a
// Cluster, a flow in the Fabric, a disk request at an IoScheduler.
//
// One module makes the choices every such table shares:
//   * Ids. A slot is named by a dense uint32_t id. Acquire() reuses the most
//     recently released id first (a LIFO free list) and appends the next id
//     when nothing is free, so a table's id sequence is a pure function of its
//     acquire/release order. Clear() drops every slot; the next id is 0 again.
//   * Storage. Geometric slabs: slab k holds 2^k slots, and an id maps to its
//     slab and offset with one std::bit_width. A slot never moves, so
//     references and pointers to it stay valid while the pool grows. A slot is
//     constructed the first time its id is handed out. The first slab holds
//     one slot: most tables on a 1,000-leaf cluster hold a handful of records,
//     and a vector grows the same way.
//   * Reuse. A released slot keeps its value; its owner resets what it needs
//     when it acquires the slot again (a vector member keeps its capacity).
//   * Staleness. Each slot carries a generation that is odd while the slot is
//     held and even while it is free; SlotRef{index, gen} names one holding
//     of a slot. Find(ref) returns null once that holding has ended — the
//     benign case of a timer or callback that outlives its record. Indexing
//     a released slot or releasing a free one is a bug: under
//     -DPERFISO_SIMSAN=ON either aborts with a "SimSan: slot-pool"
//     diagnostic. Otherwise a double release shows as occupied() disagreeing
//     with the owner's own count, which InvariantChecker compares after every
//     run.
#ifndef PERFISO_SRC_UTIL_SLOT_POOL_H_
#define PERFISO_SRC_UTIL_SLOT_POOL_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

namespace perfiso {

// One holding of a pool slot: its id and the (odd) generation it had when it
// was acquired. Independent of the element type, so a record can hold its own.
struct SlotRef {
  uint32_t index = 0;
  uint32_t gen = 0;
};

template <typename T>
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  ~SlotPool() {
    for (uint32_t id = 0; id < built_; ++id) {
      std::destroy_at(&cell(id));
    }
    for (size_t k = 0; k < bases_.size(); ++k) {
      const size_t slots = size_t{1} << k;
      std::allocator<Cell>().deallocate(
          reinterpret_cast<Cell*>(bases_[k] + slots * sizeof(Cell)), slots);
    }
  }

  // Takes the most recently released slot, or appends the next id.
  uint32_t Acquire() {
    uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = size_++;
      if (id == built_) {
        Build();
      }
    }
    ++cell(id).gen;
    return id;
  }

  // Ends the holding of `id`: its SlotRefs go stale and the id is reused
  // first.
  void Release(uint32_t id) {
    Cell& c = cell(id);
#ifdef PERFISO_SIMSAN
    if (!Held(c)) {
      Die("double release", id);
    }
#endif
    ++c.gen;
    free_.push_back(id);
  }

  T& operator[](uint32_t id) { return CheckedCell(id).value; }
  const T& operator[](uint32_t id) const { return CheckedCell(id).value; }

  SlotRef ref(uint32_t id) const { return SlotRef{id, cell(id).gen}; }
  // The slot `r` names, or null once that holding has ended.
  T* Find(SlotRef r) {
    Cell& c = cell(r.index);
    return c.gen == r.gen ? &c.value : nullptr;
  }
  bool live(uint32_t id) const { return id < size_ && Held(cell(id)); }

  // Ids handed out since the last Clear(): every live id is below it.
  uint32_t size() const { return size_; }
  // Slots currently held.
  int64_t occupied() const {
    return static_cast<int64_t>(size_) - static_cast<int64_t>(free_.size());
  }

  // Drops every slot: each is reset to T{}, every SlotRef goes stale, and the
  // next id is 0. The slabs stay allocated.
  void Clear() {
    for (uint32_t id = 0; id < size_; ++id) {
      Cell& c = cell(id);
      if (Held(c)) {
        ++c.gen;
      }
      c.value = T{};
    }
    size_ = 0;
    free_.clear();
  }

 private:
  // The generation comes first, on the cache line where the value begins:
  // Acquire and Release touch it next to the fields an owner resets.
  struct Cell {
    uint32_t gen = 0;  // odd while held
    T value{};
  };

  static bool Held(const Cell& c) { return (c.gen & 1u) != 0; }

  Cell& cell(uint32_t id) const {
    // Slab k holds ids [2^k - 1, 2^(k+1) - 1): the top bit of id + 1 names
    // the slab. x >= 1, so or-ing in 1 changes no bit width; it only tells the
    // compiler x is not zero.
    const uint32_t x = id + 1;
    const auto k = static_cast<size_t>(std::bit_width(x | 1u)) - 1;
    return *reinterpret_cast<Cell*>(bases_[k] + uintptr_t{x} * sizeof(Cell));
  }

  Cell& CheckedCell(uint32_t id) const {
    Cell& c = cell(id);
#ifdef PERFISO_SIMSAN
    if (!Held(c)) {
      Die("use of a released slot", id);
    }
#else
    assert(Held(c));
#endif
    return c;
  }

  // Constructs the slot for id built_, opening a new slab when it starts one.
  void Build() {
    if (std::has_single_bit(built_ + 1)) {
      const size_t slots = size_t{1} << bases_.size();
      Cell* slab = std::allocator<Cell>().allocate(slots);
      bases_.push_back(reinterpret_cast<uintptr_t>(slab) - slots * sizeof(Cell));
    }
    std::construct_at(&cell(built_));
    ++built_;
  }

#ifdef PERFISO_SIMSAN
  [[noreturn]] static void Die(const char* what, uint32_t id) {
    std::fprintf(stderr, "SimSan: slot-pool: %s: id %u\n", what, id);
    std::abort();
  }
#endif

  // Slab k's address less 2^k cells, as an integer, so that id + 1 indexes
  // the slab directly.
  std::vector<uintptr_t> bases_;
  std::vector<uint32_t> free_;  // released ids, most recent last
  uint32_t size_ = 0;           // ids handed out since the last Clear
  uint32_t built_ = 0;          // slots constructed (>= size_)
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_SLOT_POOL_H_
