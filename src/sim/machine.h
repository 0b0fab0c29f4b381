// SimMachine: a deterministic model of one multi-core server's scheduler.
//
// The model captures exactly the mechanisms PerfIso's CPU blind isolation
// interacts with (§3.1 of the paper):
//
//   * Per-core ready queues with quantum-based round-robin. A thread that
//     wakes takes an idle core from its allowed set immediately; otherwise it
//     queues on the allowed core with the shortest queue and waits for that
//     core's running thread to exhaust its quantum. There is no
//     same-priority wake preemption — this is why an unrestricted CPU-bound
//     secondary destroys the primary's tail latency. A core that goes idle
//     with nothing eligible in its own queue steals the oldest eligible
//     front-most waiter from the other cores' queues.
//   * Job objects (Windows Job Object analogue): a group of threads sharing
//     an affinity mask and an optional hard CPU-rate cap (duty-cycle
//     enforcement per accounting interval), the two static isolation knobs
//     the paper compares against.
//   * An idle-core bitmask query, the low-latency "syscall" blind isolation
//     polls (§3.1.1), with an incrementally kept idle count and a passive
//     one-shot watch on it that lets a controller skip polls whose decision
//     cannot change (ArmIdleWatch).
//   * Per-tenant CPU accounting (primary / secondary / OS / idle) matching
//     the breakdowns in Figs. 4b-7b, plus scheduling-delay and burstiness
//     metrics.
//
// Threads run "CPU bursts": a burst is `work` nanoseconds of CPU, after which
// an on-complete callback fires (and may spawn further bursts — that is how
// workloads express blocking on I/O or fan-out). Loop threads (bullies) have
// unbounded work; their progress is their accumulated CPU time.
//
// A thread may run on exactly its job's cores (every core without a job);
// affinity is set per job, never per thread, as with Windows Job Objects.
// Blind isolation re-pins the secondary every poll, so the run queues are
// built to cost what the eligible work costs (DESIGN.md §2): ready queues are
// intrusive FIFOs linked through the threads (O(1) push and unlink), a steal
// scan visits only the cores whose queue is non-empty, and each core keeps
// `reach`, a superset of its queued threads' job masks, so the scan skips
// every queue that cannot hold a candidate. A finished thread leaves its
// job's list in O(1) through its recorded position there.
#ifndef PERFISO_SRC_SIM_MACHINE_H_
#define PERFISO_SRC_SIM_MACHINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/cpu_set.h"
#include "src/util/inline_fn.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace perfiso {

// Which bucket a thread's CPU time is charged to, mirroring the paper's
// utilization breakdown (primary / secondary / OS; idle is the remainder).
enum class TenantClass { kPrimary = 0, kSecondary = 1, kOs = 2 };

inline constexpr int kNumTenantClasses = 3;
const char* TenantClassName(TenantClass tenant);

// Static machine parameters (defaults model the paper's testbed: 2x Intel
// Xeon E5-2673 v3, 48 logical cores, Windows-Server-style long quanta).
struct MachineSpec {
  int num_cores = 48;
  // Scheduler quantum. Windows Server uses long fixed quanta; this is the
  // delay a queued thread can suffer behind a CPU-bound thread. 60 ms
  // reproduces the paper's ~29x unmanaged-colocation degradation given the
  // query pipeline's wake points (see DESIGN.md calibration notes).
  SimDuration quantum = FromMillis(60);
  // Dispatch overhead charged to the OS bucket per context switch.
  SimDuration context_switch = FromMicros(2);
  // Accounting interval for job CPU-rate caps (duty-cycle enforcement).
  // Rate caps are enforced over coarse periods in real systems (cgroup v2
  // cpu.max defaults to 100 ms; Windows CPU rate control is similarly
  // coarse in practice). The ON-window length this produces is what delays
  // woken primary workers (Fig. 7); 300 ms reproduces the paper's observed
  // degradation magnitudes.
  SimDuration throttle_interval = FromMillis(300);
  int64_t memory_bytes = 128LL * 1024 * 1024 * 1024;
};

struct JobId {
  int value = -1;
  bool valid() const { return value >= 0; }
  bool operator==(const JobId&) const = default;
};

struct ThreadId {
  int value = -1;
  bool valid() const { return value >= 0; }
  bool operator==(const ThreadId&) const = default;
};

class SimMachine {
 public:
  using CompletionFn = InlineFn<void(SimTime)>;

  SimMachine(Simulator* sim, const MachineSpec& spec, std::string name);

  SimMachine(const SimMachine&) = delete;
  SimMachine& operator=(const SimMachine&) = delete;

  // --- Job objects -----------------------------------------------------------

  JobId CreateJob(const std::string& name);

  // Restricts all threads of `job` to `mask`. Running threads on disallowed
  // cores are preempted immediately; queued threads on them are re-routed.
  Status SetJobAffinity(JobId job, const CpuSet& mask);
  StatusOr<CpuSet> JobAffinity(JobId job) const;

  // Hard-caps the job to `fraction` of total machine CPU (all cores) per
  // accounting interval; <= 0 removes the cap. Mirrors Windows
  // JOBOBJECT_CPU_RATE_CONTROL_HARD_CAP.
  Status SetJobCpuRateCap(JobId job, double fraction);

  // Suspends/resumes all threads of the job. Blind isolation uses this when
  // the primary needs every core and the secondary's allocation drops to zero
  // (an empty affinity mask is not representable).
  Status SetJobSuspended(JobId job, bool suspended);
  StatusOr<bool> JobSuspended(JobId job) const;

  // Terminates every thread in the job (used by the memory watchdog).
  Status KillJob(JobId job);

  // Cumulative CPU time consumed by the job's threads (progress metric).
  StatusOr<SimDuration> JobCpuTime(JobId job) const;
  StatusOr<int> JobLiveThreads(JobId job) const;

  // Simulated memory accounting (no paging model; the watchdog only needs
  // footprint totals).
  Status AddJobMemory(JobId job, int64_t delta_bytes);
  StatusOr<int64_t> JobMemory(JobId job) const;
  int64_t FreeMemoryBytes() const;

  // --- Threads ---------------------------------------------------------------

  // Spawns a thread that runs `work` ns of CPU then invokes `on_complete`.
  // `job` may be invalid (unmanaged thread, full affinity). `trace_ctx`
  // optionally ties the thread's scheduling to a query trace: its run-queue
  // waits and executed slices become cpu-wait/service spans of that query.
  ThreadId SpawnThread(TenantClass tenant, JobId job, SimDuration work, CompletionFn on_complete,
                       uint64_t trace_ctx = 0);

  // Spawns a thread with unbounded work (e.g. a CPU bully worker).
  ThreadId SpawnLoopThread(TenantClass tenant, JobId job);

  Status KillThread(ThreadId tid);
  bool ThreadLive(ThreadId tid) const;

  // --- Introspection (the "syscalls" PerfIso uses) ----------------------------

  // Bitmask of cores currently running the idle thread (§3.1.1).
  const CpuSet& IdleMask() const { return idle_mask_; }
  // Popcount of IdleMask(), kept incrementally.
  int IdleCount() const { return idle_count_; }

  // --- Idle watch (quiet controller polls) --------------------------------------
  //
  // One one-shot watch on the idle count: arming sets `*flag`, and the first
  // change that takes IdleCount() outside [lo, hi] clears it and disarms.
  // The watch is passive — it schedules no event, draws no random number and
  // calls no model code — so arming it never changes a simulation. A
  // controller whose next decision is known to be a no-op for every count in
  // [lo, hi] polls `*flag` instead of the machine (DESIGN.md, "Quiet polls").
  // A disarmed watch costs one compare per idle-count change.
  //
  // Arming first disarms (clearing any previous flag), then returns false and
  // arms nothing when the count is already outside [lo, hi].
  bool ArmIdleWatch(int lo, int hi, bool* flag);
  // Clears the armed flag (if any) and disarms. Idempotent.
  void DisarmIdleWatch();
  int NumCores() const { return spec_.num_cores; }
  const MachineSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }
  Simulator* sim() const { return sim_; }

  // --- Metrics ----------------------------------------------------------------

  struct Metrics {
    // Cumulative busy time per tenant class (ns). Idle time over a window is
    // num_cores * window - sum(busy deltas).
    SimDuration busy_ns[kNumTenantClasses] = {0, 0, 0};
    int64_t dispatches = 0;
    int64_t preemptions = 0;
    int64_t steals = 0;
    int64_t threads_spawned = 0;
    // Largest number of threads that became ready within any 5 us window —
    // the paper's burstiness measurement (§1: "up to 15 threads in 5 us").
    int max_ready_burst_5us = 0;
    // Wake-to-dispatch delay of primary threads, in microseconds. Most waits
    // are exactly 0 (an idle core took the thread), so only the nonzero ones
    // are stored.
    ZeroRunRecorder primary_sched_delay_us;

    SimDuration TotalBusy() const { return busy_ns[0] + busy_ns[1] + busy_ns[2]; }
  };

  const Metrics& metrics() const { return metrics_; }

  // --- Observability ----------------------------------------------------------

  // Registers this machine as a tracer process with one track per core.
  // Afterwards, threads spawned with a trace context report cpu-wait and
  // service spans on their core's track. Purely passive: enabling tracing
  // changes no scheduling decision. Returns the machine's process id so
  // co-located components (the index server) can add their own tracks.
  int EnableTracing(Tracer* tracer);

  // Settles the partial CPU time of all currently-running slices into the
  // accounting counters. Call before snapshotting utilization so windows do
  // not absorb work consumed before the snapshot.
  void SettleAccounting();

  // Verifies internal consistency (idle mask vs. core state, queue
  // membership and FIFO links in both directions, queue lengths, every
  // running or queued thread on a core of its job mask, each core's `reach`
  // covering its queued threads, the non-empty-queue mask, job thread lists
  // with each thread's position in them and running counts, accounting
  // bounds).
  // O(threads + cores); intended for tests and debugging.
  Status CheckInvariants() const;

  // Utilization fractions of total capacity since `since` (caller snapshots
  // busy_ns and subtracts). Helper for the common "whole run" case:
  double UtilizationSince(SimTime since, const SimDuration busy_then[kNumTenantClasses],
                          TenantClass tenant) const;

 private:
  struct Thread {
    TenantClass tenant = TenantClass::kPrimary;
    int job = -1;
    enum class State { kFree, kReady, kRunning } state = State::kFree;
    SimDuration remaining = 0;
    bool loop = false;  // unbounded work
    CompletionFn on_complete{};
    // The pending end-of-slice event while kRunning. Preemption and kill
    // cancel it eagerly, so a stale slice event never sits in the queue.
    // Lifecycle owned by SimMachine (CancelOwned on every transition).
    EventHandle slice_event{};  // NOLINT(perfiso-LIFE-001)
    int core = -1;         // running core, or queued-on core when kReady in a queue
    bool queued = false;   // kReady and sitting in a core's ready queue
    int q_prev = -1;       // neighbours in that queue's FIFO (-1: none)
    int q_next = -1;
    SimTime ready_since = 0;
    SimTime slice_start = 0;
    SimDuration slice_overhead = 0;  // context-switch ns at the head of the slice
    uint64_t trace_ctx = 0;  // query trace this thread's scheduling reports to
    int job_pos = -1;        // index in its job's `threads`
  };

  struct Job {
    std::string name;
    bool live = false;
    CpuSet affinity;
    double rate_cap = 0;  // <= 0: uncapped
    bool throttled = false;
    bool suspended = false;
    int64_t usage_interval = -1;  // interval index of `usage`
    SimDuration usage = 0;        // settled CPU consumed in `usage_interval`
    int running_count = 0;        // running threads (tracked for capped jobs)
    // The single pending budget-exhaustion check for a capped job; an earlier
    // deadline tightens it in place instead of stacking a second event.
    // Lifecycle owned by SimMachine (CancelOwned on kill/uncap/throttle).
    EventHandle exhaust_event;  // NOLINT(perfiso-LIFE-001)
    // Pending end-of-interval unthrottle while `throttled`.
    EventHandle unthrottle_event;  // NOLINT(perfiso-LIFE-001)
    SimDuration cpu_time = 0;
    int64_t memory_bytes = 0;
    std::vector<int> threads;  // live thread ids (unsorted; see Thread::job_pos)
  };

  struct Core {
    int running = -1;  // thread id or -1
    // Ready FIFO, linked through Thread::q_prev/q_next; -1 when empty.
    int head = -1;
    int tail = -1;
    int len = 0;
    // Always a superset of the union of the queued threads' job masks: widened
    // on every push and job-mask change, narrowed to the exact union when a
    // steal scan walks the whole queue without finding a candidate, and
    // cleared when the queue empties.
    CpuSet reach;
  };

  // The cores `t` may run on: its job's mask, or every core without a job.
  const CpuSet& Allowed(const Thread& t) const {
    return t.job < 0 ? all_cores_ : jobs_[static_cast<size_t>(t.job)].affinity;
  }
  bool JobDispatchable(const Thread& t) const;  // job not throttled / over budget

  int AllocThreadSlot();
  void MakeReady(int tid);
  void Dispatch(int core, int tid, bool context_switch);
  void OnSliceEnd(int core, int tid);
  void DispatchNext(int core);
  // Charges CPU consumed since slice start up to `now`; updates remaining,
  // tenant accounting, and job budget. Returns consumed work (without
  // context-switch overhead).
  SimDuration ChargeRun(Thread& t);
  // Bookkeeping when a running thread stops (completion, preemption, kill):
  // maintains the job's running-thread count for rate-cap math.
  void NoteStopRunning(Thread& t);
  // The only two operations on the ready FIFOs. Enqueue appends to `core`'s
  // queue; RemoveFromQueue unlinks a queued thread in O(1) and clears its core.
  void Enqueue(int core, int tid);
  void RemoveFromQueue(int tid);
  void ThrottleJob(int job_id);
  void UnthrottleJob(int job_id);
  // Idles and refills each core in freed_cores_[base..] that is still free,
  // then truncates the list to `base`.
  void DispatchFreedCores(size_t base);
  // Moves the job's ready threads onto idle cores of their mask; threads
  // queued behind busy cores keep waiting there. Walks a copy of the job's
  // thread list kept on displaced_.
  void ReplaceReadyThreads(const Job& job);
  // Rate-cap machinery: usage is consumed at `running_count` ns of budget per
  // ns of real time, so exhaustion is predictable exactly. These maintain a
  // single pending "budget exhausted" event per capped job.
  SimDuration InflightWork(const Job& job) const;
  void ScheduleExhaustCheck(int job_id);
  void OnExhaustCheck(int job_id);
  void KickIdleCores(const CpuSet& mask);
  // The only writer of idle_mask_ after construction: keeps idle_count_ equal
  // to its popcount and checks the idle watch. Writing a core's current state
  // is a no-op.
  void SetCoreIdle(int core, bool idle) {
    if (idle_mask_.Test(core) == idle) {
      return;
    }
    if (idle) {
      idle_mask_.Set(core);
      ++idle_count_;
    } else {
      idle_mask_.Clear(core);
      --idle_count_;
    }
    // Outside [watch_lo_, watch_lo_ + watch_span_] in one unsigned compare; a
    // count below watch_lo_ wraps past the span. Disarmed, the span covers
    // every count.
    if (static_cast<uint32_t>(idle_count_ - watch_lo_) > watch_span_) {
      DisarmIdleWatch();
    }
  }
  int PickIdleCore(const CpuSet& allowed, int preferred) const;
  int PickQueueCore(const CpuSet& allowed) const;
  SimDuration RateBudgetLeft(Job& job) const;  // lazily resets per interval
  void NoteReadyBurst(SimTime now);
  void FinishThread(int tid, bool run_callback);

  Simulator* sim_;
  MachineSpec spec_;
  std::string name_;
  Tracer* tracer_ = nullptr;
  int32_t first_core_track_ = 0;  // core c's track is first_core_track_ + c
  CpuSet all_cores_;
  std::vector<Core> cores_;
  CpuSet queued_cores_;  // cores whose ready queue is non-empty
  std::vector<Thread> threads_;
  std::vector<int> free_threads_;
  std::vector<Job> jobs_;
  // Scratch lists, empty between public calls. They are used as stacks:
  // each user appends after the size it found and truncates back to it before
  // returning, so a nested user (ThrottleJob, reached from Dispatch through
  // the rate-cap check) can share them. Walk them by index: a nested user may
  // grow them.
  std::vector<int> displaced_;
  std::vector<int> freed_cores_;
  CpuSet idle_mask_;
  int idle_count_ = 0;
  // The idle watch: [watch_lo_, watch_lo_ + watch_span_] and the flag it
  // clears. Disarmed: lo 0, span UINT32_MAX, no flag.
  int watch_lo_ = 0;
  uint32_t watch_span_ = UINT32_MAX;
  bool* watch_flag_ = nullptr;
  Metrics metrics_;
  // Ready times of the last 5 us for the burst metric: the live window is
  // recent_ready_times_[ready_head_..]; the vector is compacted once the dead
  // prefix reaches half of it, so it never outgrows twice the largest burst.
  std::vector<SimTime> recent_ready_times_;
  size_t ready_head_ = 0;
  int64_t used_memory_bytes_ = 0;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_SIM_MACHINE_H_
