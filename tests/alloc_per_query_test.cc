// End-to-end allocation gate: the registry's "diurnal-blind" day (one
// IndexServe box beside a 48-thread CPU bully under blind isolation, 1 s
// warmup then the full 24 s diurnal window) run under a counting global
// operator new. Once the warmup has grown the pools, a query's whole path —
// client arrival, the receive/parse/fan-out/rank/snippet bursts, index and
// snippet reads, log appends, hedge timers, the controller's polls — must not
// touch the allocator. What remains is about 130 allocations over about
// 50,000 queries, none of them per query: new query slots (their chunk
// vectors and the pool's slabs) as the day's peak raises the in-flight
// high-water mark, and the growth of run-long sample vectors.
//
// This file replaces the global allocation functions, so it is its own test
// binary; micro_overheads_smoke is the per-event and per-IO twin.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/workload/query_trace.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfiso {
namespace {

// At most one allocation per 100 queries in the window.
constexpr double kMaxAllocsPerQuery = 0.01;
// The small-cluster window's bound, per TLA query: it reads 25 allocations
// over 976 queries (0.026), and the bound leaves a 10% margin. Link queues
// that take deque blocks read 265 (0.27); replacing each leaf's Stats at the
// reset instead of clearing its recorders read 425 (0.44) beside them.
constexpr double kMaxClusterAllocsPerQuery = 0.028;

TEST(AllocPerQueryTest, DiurnalBlindDayAllocatesNothingPerQuery) {
  const ScenarioSpec spec = bench::MustFindScenario("diurnal-blind");
  Simulator sim;
  const std::unique_ptr<IndexNodeRig> rig = bench::MakeSingleBoxRig(&sim, spec);
  Rng trace_rng(spec.trace_seed);
  std::vector<QueryWork> trace = GenerateTrace(TraceSpec{}, spec.trace_count, &trace_rng);
  IndexNodeRig* node = rig.get();
  OpenLoopClient client(&sim, std::move(trace), spec.load, Rng(spec.client_seed),
                        [node](const QueryWork& work, SimTime) {
                          node->server().SubmitQuery(work);
                        });
  client.Run(0, spec.warmup + spec.measure);
  sim.RunUntil(spec.warmup);
  rig->server().ResetStats();

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  sim.RunUntil(spec.warmup + spec.measure);
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;

  const int64_t queries = rig->server().stats().submitted;
  ASSERT_GT(queries, 40000);  // the whole day ran
  const double per_query = static_cast<double>(allocs) / static_cast<double>(queries);
  std::printf("window: %llu allocations over %lld queries (%.4f per query)\n",
              static_cast<unsigned long long>(allocs), static_cast<long long>(queries),
              per_query);
  EXPECT_LE(per_query, kMaxAllocsPerQuery);
}

// A small cluster's window, opened by Cluster::ResetStats as cluster_day
// opens its own: every leaf's IndexServer clears its recorders then, and
// must keep their capacity instead of regrowing them from empty. The warmup
// and the window carry the same load, so whatever the warmup grew suffices.
TEST(AllocPerQueryTest, SmallClusterWindowKeepsRecorderCapacity) {
  Simulator sim;
  ClusterOptions options;
  options.topology = ClusterTopology{4, 2, 2};
  Cluster cluster(&sim, options);
  Rng trace_rng(7);
  std::vector<QueryWork> trace = GenerateTrace(TraceSpec{}, 2000, &trace_rng);
  Cluster* target = &cluster;
  OpenLoopClient client(&sim, std::move(trace), /*queries_per_sec=*/500.0, Rng(11),
                        [target](const QueryWork& work, SimTime) { target->SubmitQuery(work); });
  constexpr SimDuration kPhase = 2 * kSecond;
  client.Run(0, 2 * kPhase);
  sim.RunUntil(kPhase);
  cluster.ResetStats();

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  sim.RunUntil(2 * kPhase);
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;

  const int64_t queries = cluster.queries_submitted();
  ASSERT_GT(queries, 900);  // the whole window ran
  const double per_query = static_cast<double>(allocs) / static_cast<double>(queries);
  std::printf("cluster window: %llu allocations over %lld queries (%.4f per query)\n",
              static_cast<unsigned long long>(allocs), static_cast<long long>(queries),
              per_query);
  EXPECT_LE(per_query, kMaxClusterAllocsPerQuery);
}

}  // namespace
}  // namespace perfiso
