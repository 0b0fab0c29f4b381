// SlotPool: id order, stable storage, staleness, Clear, occupancy, and the
// SimSan checks (built twice by CI, as simsan_test.cc: the plain build takes
// the lenient side, the SimSan build aborts with a "SimSan: slot-pool"
// diagnostic).
#include "src/util/slot_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {
namespace {

// The free-list rule every hand-written table followed before the pool:
// reuse the most recently freed id, else append the next one.
class ReferenceTable {
 public:
  uint32_t Acquire() {
    if (free_.empty()) {
      return next_++;
    }
    const uint32_t id = free_.back();
    free_.pop_back();
    return id;
  }
  void Release(uint32_t id) { free_.push_back(id); }

 private:
  std::vector<uint32_t> free_;
  uint32_t next_ = 0;
};

TEST(SlotPoolTest, IdsFollowTheLifoFreeListOfTheOldTables) {
  SlotPool<int> pool;
  ReferenceTable reference;
  std::vector<uint32_t> held;
  Rng rng(5);
  for (int step = 0; step < 5000; ++step) {
    // Grow while mostly acquiring, then drain: ids climb through several
    // slabs and come back through the free list in both directions.
    const bool acquire = held.empty() || rng.Uniform(0, 1) < (step < 3000 ? 0.6 : 0.4);
    if (acquire) {
      const uint32_t id = pool.Acquire();
      ASSERT_EQ(id, reference.Acquire()) << "step " << step;
      held.push_back(id);
    } else {
      const auto pick = static_cast<size_t>(rng.Uniform(0, 1) * static_cast<double>(held.size()));
      const uint32_t id = held[pick];
      held[pick] = held.back();
      held.pop_back();
      pool.Release(id);
      reference.Release(id);
    }
    ASSERT_EQ(pool.occupied(), static_cast<int64_t>(held.size()));
  }
}

TEST(SlotPoolTest, HandWrittenScriptReusesTheLastReleasedIdFirst) {
  SlotPool<int> pool;
  EXPECT_EQ(pool.Acquire(), 0u);
  EXPECT_EQ(pool.Acquire(), 1u);
  EXPECT_EQ(pool.Acquire(), 2u);
  pool.Release(0);
  pool.Release(2);
  EXPECT_EQ(pool.Acquire(), 2u);
  EXPECT_EQ(pool.Acquire(), 0u);
  EXPECT_EQ(pool.Acquire(), 3u);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(SlotPoolTest, AddressesStayPutWhileThePoolGrowsThroughSlabs) {
  SlotPool<uint64_t> pool;
  std::vector<uint64_t*> addresses;
  for (uint32_t i = 0; i < 1000; ++i) {  // slabs of 1, 2, ..., 512
    const uint32_t id = pool.Acquire();
    ASSERT_EQ(id, i);
    pool[id] = id * 7;
    addresses.push_back(&pool[id]);
  }
  // Each slot still holds its own value, so no two ids share storage.
  for (uint32_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(&pool[id], addresses[id]);
    EXPECT_EQ(pool[id], id * 7u);
  }
}

TEST(SlotPoolTest, FindReturnsNullForAStaleRefAfterReuse) {
  SlotPool<int> pool;
  const uint32_t id = pool.Acquire();
  const SlotRef first = pool.ref(id);
  EXPECT_EQ(pool.Find(first), &pool[id]);
  pool.Release(id);
  EXPECT_EQ(pool.Find(first), nullptr);
  EXPECT_FALSE(pool.live(id));
  ASSERT_EQ(pool.Acquire(), id);  // the same slot, a new holding
  const SlotRef second = pool.ref(id);
  EXPECT_NE(second.gen, first.gen);
  EXPECT_EQ(pool.Find(first), nullptr);
  EXPECT_EQ(pool.Find(second), &pool[id]);
}

TEST(SlotPoolTest, ReuseKeepsTheValueForItsOwnerToReset) {
  SlotPool<std::vector<int>> pool;
  const uint32_t id = pool.Acquire();
  pool[id].assign(100, 1);
  pool[id].clear();
  const size_t capacity = pool[id].capacity();
  pool.Release(id);
  ASSERT_EQ(pool.Acquire(), id);
  EXPECT_EQ(pool[id].capacity(), capacity);
}

TEST(SlotPoolTest, ClearDropsEverySlotAndRestartsAtIdZero) {
  SlotPool<std::vector<int>> pool;
  for (int i = 0; i < 10; ++i) {
    pool[pool.Acquire()].push_back(i);
  }
  pool.Release(3);
  const SlotRef held = pool.ref(5);
  pool.Clear();
  EXPECT_EQ(pool.occupied(), 0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.live(5));
  EXPECT_EQ(pool.Find(held), nullptr);
  for (uint32_t id = 0; id < 6; ++id) {
    ASSERT_EQ(pool.Acquire(), id);
    EXPECT_TRUE(pool[id].empty());  // reset, not the value from before Clear
  }
  EXPECT_EQ(pool.Find(held), nullptr);  // id 5 is held again, by a new holding
}

TEST(SlotPoolTest, OccupiedCountsHeldSlots) {
  SlotPool<int> pool;
  EXPECT_EQ(pool.occupied(), 0);
  const uint32_t a = pool.Acquire();
  const uint32_t b = pool.Acquire();
  EXPECT_EQ(pool.occupied(), 2);
  pool.Release(a);
  EXPECT_EQ(pool.occupied(), 1);
  EXPECT_TRUE(pool.live(b));
  EXPECT_FALSE(pool.live(a));
  EXPECT_FALSE(pool.live(7));  // never handed out
  pool.Release(b);
  EXPECT_EQ(pool.occupied(), 0);
}

TEST(SlotPoolTest, UseAfterReleaseAbortsUnderSimSanOnly) {
  SlotPool<int> pool;
  const uint32_t id = pool.Acquire();
  const SlotRef ref = pool.ref(id);
  pool.Release(id);
  if constexpr (kSimSanEnabled) {
    EXPECT_DEATH((void)pool[id], "SimSan: slot-pool: use of a released slot");
  } else {
    // Indexing is unchecked here; the benign way in is a Ref, which finds
    // nothing.
    EXPECT_FALSE(pool.live(id));
    EXPECT_EQ(pool.Find(ref), nullptr);
  }
}

TEST(SlotPoolTest, DoubleReleaseAbortsUnderSimSanOnly) {
  SlotPool<int> pool;
  const uint32_t id = pool.Acquire();
  (void)pool.Acquire();
  pool.Release(id);
  if constexpr (kSimSanEnabled) {
    EXPECT_DEATH(pool.Release(id), "SimSan: slot-pool: double release");
  } else {
    // Silently accepted: the occupancy count is what gives it away, one held
    // slot reading as none.
    pool.Release(id);
    EXPECT_EQ(pool.occupied(), 0);
  }
}

}  // namespace
}  // namespace perfiso
