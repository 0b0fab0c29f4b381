// Micro-benchmarks for the mechanisms PerfIso relies on being cheap: the
// idle-core query, one controller poll, an affinity update, thread dispatch,
// raw event-engine throughput, and the disk stack's per-IO cost. The paper's
// design requires "a low-latency, low-overhead means of obtaining CPU
// utilization information" (§3.1.1); the reproduction additionally requires
// the event engine itself to be off the critical path of every figure.
//
// Heap allocations are counted via the global operator new replacement at the
// bottom of this file, so "allocations per event" is measured, not claimed.
// The engine's steady state must allocate nothing and fire no dead events,
// and the disk stack may allocate at most once per 1,000 IOs; the binary
// exits 1 if any of these is violated, so the smoke ctest fails.
//
// Results are recorded into BENCH_micro_overheads.json like every other
// bench. No external benchmark library is required.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "bench/harness.h"
#include "src/disk/io_scheduler.h"
#include "src/perfiso/controller.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/workload/bullies.h"

// Counted by the operator new/delete replacements at file scope below.
extern std::atomic<uint64_t> g_heap_allocs;

namespace perfiso {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Engine throughput -------------------------------------------------------
//
// The workload is the shape every layer of this repo produces: each unit of
// work fires, arms a timeout guard far in the future (a hedge timer, a slice
// preemption, an I/O deadline), and schedules the next unit; when the work
// completes — long before the guard — it cancels the guard, which leaves the
// queue eagerly. A guard that fires anyway is a dead fire.
//
// Throughput is reported in *useful* (work) events per second, wall-clocked
// over the steady state.

constexpr SimDuration kWorkPeriod = 1000;          // 1 us between work items per chain
constexpr SimDuration kGuardTimeout = 10'000'000;  // 10 ms guard — the hedge delay (§2)

struct EngineScore {
  double useful_events_per_sec = 0;
  double allocs_per_event = 0;  // steady state, after the pool is warm
  uint64_t dead_fires = 0;      // guards that fired as no-ops
};

// Guard body: sized like real callbacks (above std::function's ~16-byte
// inline buffer, inside EventCallback::kInlineBytes).
struct PooledGuard {
  uint64_t* dead;
  uint64_t pad[3];
  void operator()() const { ++*dead; }
};

struct PooledWork {
  Simulator* sim;
  uint64_t* fired;
  uint64_t* dead;
  // Armed when this work item was scheduled; operator() below cancels it, so
  // the lifecycle lives with the scheduled callback, not a destructor.
  EventHandle guard;  // NOLINT(perfiso-LIFE-001)
  void operator()() const {
    ++*fired;
    sim->Cancel(guard);  // work beat its timeout: the guard leaves the queue
    const EventHandle next_guard =
        sim->ScheduleAfter(kGuardTimeout, PooledGuard{dead, {}});
    sim->ScheduleAfter(kWorkPeriod, PooledWork{sim, fired, dead, next_guard});
  }
};

// `chains` work chains, each arming a guard per work item. Steps until the
// warmup mark, then wall-clocks the next `measured_fires` useful events.
EngineScore MeasurePooledEngine(int chains, uint64_t warmup_fires, uint64_t measured_fires) {
  Simulator sim;
  uint64_t fired = 0;
  uint64_t dead = 0;
  for (int i = 0; i < chains; ++i) {
    const EventHandle guard =
        sim.Schedule(i + kGuardTimeout, PooledGuard{&dead, {}});
    sim.Schedule(i, PooledWork{&sim, &fired, &dead, guard});
  }
  while (fired < warmup_fires) {
    sim.Step();
  }
  const uint64_t dead_before = dead;
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  const uint64_t target = warmup_fires + measured_fires;
  while (fired < target) {
    sim.Step();
  }
  const double elapsed = SecondsSince(start);
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);

  EngineScore score;
  score.useful_events_per_sec = static_cast<double>(measured_fires) / elapsed;
  score.allocs_per_event = static_cast<double>(allocs_after - allocs_before) /
                           static_cast<double>(measured_fires);
  score.dead_fires = dead - dead_before;
  return score;
}

// Schedule/Cancel churn: a batch of near-future events armed, then all
// cancelled before any fires.
double MeasureCancelThroughput(int batch, int rounds) {
  Simulator sim;
  uint64_t sink = 0;
  std::vector<EventHandle> handles(static_cast<size_t>(batch));
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < batch; ++i) {
      handles[static_cast<size_t>(i)] = sim.ScheduleAfter(1000 + i, [&sink] { ++sink; });
    }
    for (int i = 0; i < batch; ++i) {
      sim.Cancel(handles[static_cast<size_t>(i)]);
    }
  }
  const double elapsed = SecondsSince(start);
  if (sink != 0) {
    std::abort();  // every event must have been cancelled before firing
  }
  return static_cast<double>(batch) * rounds / elapsed;  // schedule+cancel pairs/sec
}

// --- Disk stack ----------------------------------------------------------------
//
// Chained IOs through an IoScheduler over a 4-drive SSD stripe, split between
// two owners in different bands: each completion submits the chain's next IO
// with a callback that captures one pointer (small enough for std::function's
// inline buffer, so the caller adds no allocation of its own). The bound
// leaves room for the amortized growth of the per-owner latency records; the
// requests themselves must live in the scheduler's warm slot pool.

constexpr int kDiskChains = 48;
// 32 IOs in service, 8 waiting in drive queues, 8 in the owner queues.
constexpr int kDiskMaxOutstanding = 40;

struct DiskChain {
  IoScheduler* io = nullptr;
  int owner = 0;
  uint64_t* completed = nullptr;

  void SubmitNext() {
    IoRequest request;
    request.owner = owner;
    request.bytes = 4096;
    request.on_complete = [this](SimTime) {
      ++*completed;
      SubmitNext();
    };
    io->Submit(std::move(request));
  }
};

struct DiskScore {
  double ios_per_sec = 0;
  double allocs_per_io = 0;  // steady state, after the slot and event pools are warm
};

// Warms up for `warmup` of simulated time, then wall-clocks the next
// `measured_ios` completions.
DiskScore MeasureDiskStack(SimDuration warmup, uint64_t measured_ios) {
  Simulator sim;
  StripedVolume volume(DiskSpec::Ssd(), 4, "ssd");
  IoScheduler io(&sim, &volume, kDiskMaxOutstanding);
  io.RegisterOwner(1, /*priority=*/0, /*weight=*/1);
  io.RegisterOwner(2, /*priority=*/1, /*weight=*/1);
  uint64_t completed = 0;
  std::vector<DiskChain> chains(kDiskChains);
  for (size_t i = 0; i < chains.size(); ++i) {
    chains[i] = DiskChain{&io, 1 + static_cast<int>(i % 2), &completed};
    chains[i].SubmitNext();
  }
  sim.RunUntil(warmup);
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const uint64_t completed_before = completed;
  const auto start = Clock::now();
  while (completed < completed_before + measured_ios) {
    sim.Step();
  }
  const double elapsed = SecondsSince(start);
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  const auto ios = static_cast<double>(completed - completed_before);

  DiskScore score;
  score.ios_per_sec = ios / elapsed;
  score.allocs_per_io = static_cast<double>(allocs_after - allocs_before) / ios;
  return score;
}

// --- PerfIso control-plane micro costs ---------------------------------------

struct ControllerRig {
  Simulator sim;
  MachineSpec spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimPlatform> platform;
  std::unique_ptr<CpuBully> bully;
  std::unique_ptr<PerfIsoController> controller;

  ControllerRig() {
    machine = std::make_unique<SimMachine>(&sim, spec, "m0");
    platform = std::make_unique<SimPlatform>(machine.get(), nullptr);
    const JobId job = machine->CreateJob("secondary");
    platform->AddSecondaryJob(job);
    bully = std::make_unique<CpuBully>(machine.get(), job, 48);
    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    controller = std::make_unique<PerfIsoController>(platform.get(), config);
    if (!controller->Initialize().ok()) {
      std::abort();
    }
  }
};

// Nanoseconds per call of `op`, amortized over enough iterations to be
// readable on a shared CI core.
template <typename Op>
double MeasureNsPerOp(int iterations, Op&& op) {
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    op(i);
  }
  return SecondsSince(start) * 1e9 / iterations;
}

}  // namespace
}  // namespace perfiso

int main() {
  using namespace perfiso;
  using namespace perfiso::bench;

  StartReport("micro_overheads");
  PrintHeader("Micro-overheads", "engine + control plane",
              "event-engine throughput and allocations, plus the cheap-syscall costs of §3.1.1");

  // Engine throughput: 32 concurrent work chains, each arming a timeout
  // guard per work item (the hedge/slice/deadline shape every layer emits).
  // Warmup runs past the guard horizon, so a guard that escaped its cancel
  // would fire inside the measured window.
  const int kChains = 32;
  const uint64_t kWarmup = 2 * kChains * static_cast<uint64_t>(kGuardTimeout / kWorkPeriod);
  const auto kMeasured = static_cast<uint64_t>(500'000 * BenchScale());

  const EngineScore pooled = MeasurePooledEngine(kChains, kWarmup, kMeasured);
  const double cancel_pairs =
      MeasureCancelThroughput(1024, static_cast<int>(200 * BenchScale()));

  std::printf("engine throughput (%d chains, 1 timeout guard per work item):\n", kChains);
  std::printf("  %10.2f M useful events/s   %5.2f heap allocs/event   %8llu dead fires\n",
              pooled.useful_events_per_sec / 1e6, pooled.allocs_per_event,
              static_cast<unsigned long long>(pooled.dead_fires));
  std::printf("  schedule+cancel %6.2f M pairs/s\n", cancel_pairs / 1e6);
  ReportRow("engine_throughput",
            {
                {"pooled_events_per_sec", pooled.useful_events_per_sec},
                {"pooled_allocs_per_event_steady", pooled.allocs_per_event},
                {"pooled_dead_fires", static_cast<double>(pooled.dead_fires)},
                {"cancel_pairs_per_sec", cancel_pairs},
            });
  const bool engine_ok = pooled.allocs_per_event == 0 && pooled.dead_fires == 0;
  if (!engine_ok) {
    std::fprintf(stderr,
                 "micro_overheads: FAIL: the engine's steady state must allocate nothing "
                 "and fire no dead events (allocs/event %.4f, dead fires %llu)\n",
                 pooled.allocs_per_event, static_cast<unsigned long long>(pooled.dead_fires));
  }

  // Disk stack: at most one allocation per 1,000 IOs in steady state. The
  // warmup crosses several turns of the event wheel's top level (~16.8 ms),
  // so the engine's far-future heap has reached its working size too.
  const DiskScore disk =
      MeasureDiskStack(FromMillis(50), static_cast<uint64_t>(200'000 * BenchScale()));
  std::printf("disk stack (%d chained IOs, 4-drive SSD stripe, 2 owners):\n", kDiskChains);
  std::printf("  %10.2f M IOs/s   %8.5f heap allocs/IO\n", disk.ios_per_sec / 1e6,
              disk.allocs_per_io);
  ReportRow("disk_stack", {
                              {"ios_per_sec", disk.ios_per_sec},
                              {"allocs_per_io_steady", disk.allocs_per_io},
                          });
  const bool disk_ok = disk.allocs_per_io <= 1e-3;
  if (!disk_ok) {
    std::fprintf(stderr,
                 "micro_overheads: FAIL: the disk stack's steady state must allocate at most "
                 "once per 1,000 IOs (allocs/IO %.4f)\n",
                 disk.allocs_per_io);
  }

  // Control-plane costs (the "syscalls" the controller's tight loop issues).
  const int kIters = static_cast<int>(200'000 * BenchScale());
  double idle_ns;
  double poll_ns;
  double affinity_ns;
  {
    ControllerRig rig;
    volatile int sink = 0;
    idle_ns = MeasureNsPerOp(kIters, [&](int) { sink = sink + rig.platform->IdleCores().Count(); });
    poll_ns = MeasureNsPerOp(kIters, [&](int) { rig.controller->Poll(); });
    affinity_ns = MeasureNsPerOp(kIters / 10, [&](int i) {
      const int cores = (i & 1) != 0 ? 16 : 8;  // force a real update every call
      (void)rig.platform->SetSecondaryAffinity(CpuSet::Range(48 - cores, 48));
    });
  }
  double dispatch_ns;
  {
    // Cost of one thread spawn+dispatch+completion round trip in the machine.
    Simulator sim;
    MachineSpec spec;
    spec.context_switch = 0;
    SimMachine machine(&sim, spec, "m0");
    dispatch_ns = MeasureNsPerOp(kIters / 10, [&](int) {
      machine.SpawnThread(TenantClass::kPrimary, JobId{}, 1000, nullptr);
      sim.RunUntilEmpty();
    });
  }

  std::printf("control plane:\n");
  std::printf("  idle-core query    %8.1f ns\n", idle_ns);
  std::printf("  controller poll    %8.1f ns\n", poll_ns);
  std::printf("  affinity update    %8.1f ns\n", affinity_ns);
  std::printf("  thread round trip  %8.1f ns\n", dispatch_ns);
  ReportRow("control_plane", {
                                 {"idle_query_ns", idle_ns},
                                 {"controller_poll_ns", poll_ns},
                                 {"affinity_update_ns", affinity_ns},
                                 {"thread_round_trip_ns", dispatch_ns},
                             });
  return engine_ok && disk_ok ? 0 : 1;
}

// --- Allocation counting -----------------------------------------------------
//
// Replacing the global allocation functions lets the engine and disk sections
// report measured allocations per event and per IO. Counting is relaxed-atomic; the replacement
// otherwise forwards to malloc/free.
std::atomic<uint64_t> g_heap_allocs{0};

namespace {
void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
