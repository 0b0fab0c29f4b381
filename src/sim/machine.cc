#include "src/sim/machine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>
#include <utility>

namespace perfiso {

namespace {
// Window for the "threads ready per 5 us" burstiness metric (§1).
constexpr SimDuration kBurstWindow = 5 * kMicrosecond;
}  // namespace

const char* TenantClassName(TenantClass tenant) {
  switch (tenant) {
    case TenantClass::kPrimary:
      return "primary";
    case TenantClass::kSecondary:
      return "secondary";
    case TenantClass::kOs:
      return "os";
  }
  return "?";
}

SimMachine::SimMachine(Simulator* sim, const MachineSpec& spec, std::string name)
    : sim_(sim), spec_(spec), name_(std::move(name)) {
  assert(spec_.num_cores > 0 && spec_.num_cores <= CpuSet::kMaxCpus);
  assert(spec_.quantum > 0 && spec_.throttle_interval > 0);
  all_cores_ = CpuSet::FirstN(spec_.num_cores);
  cores_.resize(static_cast<size_t>(spec_.num_cores));
  idle_mask_ = all_cores_;
  idle_count_ = spec_.num_cores;
  threads_.reserve(256);
}

// --- Job objects -------------------------------------------------------------

JobId SimMachine::CreateJob(const std::string& job_name) {
  Job job;
  job.name = job_name;
  job.live = true;
  job.affinity = all_cores_;
  jobs_.push_back(std::move(job));
  return JobId{static_cast<int>(jobs_.size()) - 1};
}

Status SimMachine::SetJobAffinity(JobId job_id, const CpuSet& mask) {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  if (!job.live) {
    return FailedPreconditionError("job is dead: " + job.name);
  }
  const CpuSet effective = mask & all_cores_;
  if (effective.Empty()) {
    return InvalidArgumentError("job affinity mask has no valid cores");
  }
  if (effective == job.affinity) {
    return OkStatus();
  }
  job.affinity = effective;

  // Preempt running threads that are now on disallowed cores, and pull queued
  // threads off disallowed cores' queues; both get re-placed afterwards. A
  // queued thread that stays widens its core's `reach` to the new mask.
  const size_t displaced_base = displaced_.size();
  const size_t freed_base = freed_cores_.size();
  for (int tid : job.threads) {
    Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state == Thread::State::kRunning && !effective.Test(t.core)) {
      ChargeRun(t);
      sim_->CancelOwned(t.slice_event);
      ++metrics_.preemptions;
      NoteStopRunning(t);
      cores_[static_cast<size_t>(t.core)].running = -1;
      freed_cores_.push_back(t.core);
      t.state = Thread::State::kReady;
      t.core = -1;
      displaced_.push_back(tid);
    } else if (t.queued && effective.Test(t.core)) {
      cores_[static_cast<size_t>(t.core)].reach |= effective;
    } else if (t.queued) {
      RemoveFromQueue(tid);
      displaced_.push_back(tid);
    }
  }
  const size_t freed_end = freed_cores_.size();
  for (size_t i = freed_base; i < freed_end; ++i) {
    SetCoreIdle(freed_cores_[i], true);
  }
  for (size_t i = displaced_base; i < displaced_.size(); ++i) {
    MakeReady(displaced_[i]);
  }
  for (size_t i = freed_base; i < freed_end; ++i) {
    const int core = freed_cores_[i];
    if (cores_[static_cast<size_t>(core)].running < 0) {
      DispatchNext(core);
    }
  }
  displaced_.resize(displaced_base);
  freed_cores_.resize(freed_base);
  // If the mask grew, idle cores inside it may now be able to serve queued
  // threads of this job (via stealing in DispatchNext).
  KickIdleCores(effective);
  return OkStatus();
}

StatusOr<CpuSet> SimMachine::JobAffinity(JobId job_id) const {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  return jobs_[static_cast<size_t>(job_id.value)].affinity;
}

Status SimMachine::SetJobCpuRateCap(JobId job_id, double fraction) {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  if (fraction > 1.0) {
    return InvalidArgumentError("rate cap must be <= 1.0");
  }
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  job.rate_cap = fraction;
  if (fraction <= 0) {
    sim_->CancelOwned(job.exhaust_event);  // uncapped: a pending budget check is moot
    if (job.throttled) {
      UnthrottleJob(job_id.value);
    }
  } else {
    // Threads may already be running (dispatched uncapped); arm the budget
    // check now so the cap takes effect within this accounting interval.
    ScheduleExhaustCheck(job_id.value);
  }
  return OkStatus();
}

Status SimMachine::KillJob(JobId job_id) {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  const std::vector<int> victims = job.threads;  // KillThread mutates the list
  for (int tid : victims) {
    (void)KillThread(ThreadId{tid});
  }
  used_memory_bytes_ -= job.memory_bytes;
  job.memory_bytes = 0;
  job.live = false;
  sim_->CancelOwned(job.exhaust_event);
  sim_->CancelOwned(job.unthrottle_event);
  return OkStatus();
}

StatusOr<SimDuration> SimMachine::JobCpuTime(JobId job_id) const {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  // Include the in-flight portion of currently-running slices so progress
  // reads are exact at any instant.
  const Job& job = jobs_[static_cast<size_t>(job_id.value)];
  SimDuration total = job.cpu_time;
  for (int tid : job.threads) {
    const Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state == Thread::State::kRunning) {
      const SimDuration elapsed = sim_->Now() - t.slice_start;
      total += std::max<SimDuration>(0, elapsed - t.slice_overhead);
    }
  }
  return total;
}

StatusOr<int> SimMachine::JobLiveThreads(JobId job_id) const {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  return static_cast<int>(jobs_[static_cast<size_t>(job_id.value)].threads.size());
}

Status SimMachine::AddJobMemory(JobId job_id, int64_t delta_bytes) {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  if (job.memory_bytes + delta_bytes < 0) {
    return InvalidArgumentError("job memory would go negative");
  }
  job.memory_bytes += delta_bytes;
  used_memory_bytes_ += delta_bytes;
  return OkStatus();
}

StatusOr<int64_t> SimMachine::JobMemory(JobId job_id) const {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  return jobs_[static_cast<size_t>(job_id.value)].memory_bytes;
}

int64_t SimMachine::FreeMemoryBytes() const { return spec_.memory_bytes - used_memory_bytes_; }

// --- Threads -----------------------------------------------------------------

int SimMachine::AllocThreadSlot() {
  if (!free_threads_.empty()) {
    const int tid = free_threads_.back();
    free_threads_.pop_back();
    return tid;
  }
  threads_.emplace_back();
  return static_cast<int>(threads_.size()) - 1;
}

ThreadId SimMachine::SpawnThread(TenantClass tenant, JobId job, SimDuration work,
                                 CompletionFn on_complete, uint64_t trace_ctx) {
  const int tid = AllocThreadSlot();
  Thread& t = threads_[static_cast<size_t>(tid)];
  std::destroy_at(&t);
  new (&t) Thread{.tenant = tenant,
                  .job = job.valid() ? job.value : -1,
                  .state = Thread::State::kReady,
                  .remaining = std::max<SimDuration>(1, work),
                  .on_complete = std::move(on_complete),
                  .ready_since = sim_->Now(),
                  .trace_ctx = trace_ctx};
  if (t.job >= 0) {
    Job& owner = jobs_[static_cast<size_t>(t.job)];
    assert(owner.live);
    t.job_pos = static_cast<int>(owner.threads.size());
    owner.threads.push_back(tid);
  }
  ++metrics_.threads_spawned;
  NoteReadyBurst(sim_->Now());
  MakeReady(tid);
  return ThreadId{tid};
}

ThreadId SimMachine::SpawnLoopThread(TenantClass tenant, JobId job) {
  const ThreadId tid = SpawnThread(tenant, job, kSecond, nullptr);
  threads_[static_cast<size_t>(tid.value)].loop = true;
  return tid;
}

Status SimMachine::KillThread(ThreadId tid) {
  if (!ThreadLive(tid)) {
    return InvalidArgumentError("no such thread");
  }
  Thread& t = threads_[static_cast<size_t>(tid.value)];
  int freed_core = -1;
  if (t.state == Thread::State::kRunning) {
    ChargeRun(t);
    NoteStopRunning(t);
    freed_core = t.core;
    cores_[static_cast<size_t>(freed_core)].running = -1;
    SetCoreIdle(freed_core, true);
  } else if (t.state == Thread::State::kReady && t.queued) {
    RemoveFromQueue(tid.value);
  }
  FinishThread(tid.value, /*run_callback=*/false);
  if (freed_core >= 0 && cores_[static_cast<size_t>(freed_core)].running < 0) {
    DispatchNext(freed_core);
  }
  return OkStatus();
}

bool SimMachine::ThreadLive(ThreadId tid) const {
  if (!tid.valid() || tid.value >= static_cast<int>(threads_.size())) {
    return false;
  }
  return threads_[static_cast<size_t>(tid.value)].state != Thread::State::kFree;
}

// --- Scheduling core ----------------------------------------------------------

SimDuration SimMachine::RateBudgetLeft(Job& job) const {
  const int64_t idx = sim_->Now() / spec_.throttle_interval;
  if (job.usage_interval != idx) {
    job.usage_interval = idx;
    job.usage = 0;
  }
  const auto budget = static_cast<SimDuration>(
      job.rate_cap * static_cast<double>(spec_.throttle_interval) * spec_.num_cores);
  return budget - job.usage;
}

bool SimMachine::JobDispatchable(const Thread& t) const {
  // Budget exhaustion is handled by the per-job exhaust event (which sets
  // `throttled`), so the gates here are the throttle and suspend flags.
  if (t.job < 0) {
    return true;
  }
  const Job& job = jobs_[static_cast<size_t>(t.job)];
  return !job.throttled && !job.suspended;
}

Status SimMachine::SetJobSuspended(JobId job_id, bool suspended) {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  if (!job.live) {
    return FailedPreconditionError("job is dead: " + job.name);
  }
  if (job.suspended == suspended) {
    return OkStatus();
  }
  job.suspended = suspended;
  if (suspended) {
    // Preempt running threads; they stay queued until resume.
    const size_t freed_base = freed_cores_.size();
    for (int tid : job.threads) {
      Thread& t = threads_[static_cast<size_t>(tid)];
      if (t.state != Thread::State::kRunning) {
        continue;
      }
      ChargeRun(t);
      sim_->CancelOwned(t.slice_event);
      ++metrics_.preemptions;
      NoteStopRunning(t);
      const int core = t.core;
      cores_[static_cast<size_t>(core)].running = -1;
      freed_cores_.push_back(core);
      t.state = Thread::State::kReady;
      t.ready_since = sim_->Now();
      Enqueue(core, tid);
    }
    DispatchFreedCores(freed_base);
  } else {
    ReplaceReadyThreads(job);
  }
  return OkStatus();
}

StatusOr<bool> SimMachine::JobSuspended(JobId job_id) const {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  return jobs_[static_cast<size_t>(job_id.value)].suspended;
}

SimDuration SimMachine::InflightWork(const Job& job) const {
  SimDuration inflight = 0;
  for (int tid : job.threads) {
    const Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state == Thread::State::kRunning) {
      const SimDuration elapsed = sim_->Now() - t.slice_start;
      inflight += std::max<SimDuration>(0, elapsed - t.slice_overhead);
    }
  }
  return inflight;
}

void SimMachine::ScheduleExhaustCheck(int job_id) {
  Job& job = jobs_[static_cast<size_t>(job_id)];
  if (!job.live || job.rate_cap <= 0 || job.throttled || job.running_count <= 0) {
    sim_->CancelOwned(job.exhaust_event);  // a pending check (if any) is now moot
    return;
  }
  const SimDuration left = RateBudgetLeft(job) - InflightWork(job);
  if (left < job.running_count) {  // less than 1 ns of budget per running thread
    ThrottleJob(job_id);
    return;
  }
  // A pending check that fires no later is kept (it recomputes); a later one
  // is pulled earlier (consumption sped up).
  const SimTime when = sim_->Now() + left / job.running_count;
  sim_->ScheduleOrTighten(job.exhaust_event, when, [this, job_id] { OnExhaustCheck(job_id); });
}

void SimMachine::OnExhaustCheck(int job_id) {
  // This callback is the exhaust event firing: drop the now-stale handle
  // before recomputing, so it never lingers past the slot's recycle.
  jobs_[static_cast<size_t>(job_id)].exhaust_event = EventHandle();
  ScheduleExhaustCheck(job_id);  // recomputes: throttles now or re-arms later
}

int SimMachine::PickIdleCore(const CpuSet& allowed, int preferred) const {
  if (preferred >= 0 && idle_mask_.Test(preferred) && allowed.Test(preferred)) {
    return preferred;
  }
  return (idle_mask_ & allowed).Lowest();
}

int SimMachine::PickQueueCore(const CpuSet& allowed) const {
  int best = -1;
  int best_len = 0;
  for (int core = allowed.Lowest(); core >= 0; core = allowed.NextAfter(core)) {
    const int len = cores_[static_cast<size_t>(core)].len;
    if (best < 0 || len < best_len) {
      best = core;
      best_len = len;
      if (len == 0) {
        break;  // nothing shorter exists, and ties go to the lowest core
      }
    }
  }
  return best;
}

void SimMachine::NoteReadyBurst(SimTime now) {
  recent_ready_times_.push_back(now);
  while (recent_ready_times_[ready_head_] < now - kBurstWindow) {
    ++ready_head_;  // stops at `now` at the latest
  }
  const size_t live = recent_ready_times_.size() - ready_head_;
  metrics_.max_ready_burst_5us = std::max(metrics_.max_ready_burst_5us, static_cast<int>(live));
  if (ready_head_ >= live) {
    recent_ready_times_.erase(recent_ready_times_.begin(),
                              recent_ready_times_.begin() + static_cast<std::ptrdiff_t>(ready_head_));
    ready_head_ = 0;
  }
}

void SimMachine::MakeReady(int tid) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  assert(t.state == Thread::State::kReady && !t.queued);
  const CpuSet& allowed = Allowed(t);
  if (JobDispatchable(t)) {
    const int idle_core = PickIdleCore(allowed, t.core);
    if (idle_core >= 0) {
      Dispatch(idle_core, tid, /*context_switch=*/true);
      return;
    }
  }
  const int queue_core = PickQueueCore(allowed);
  assert(queue_core >= 0);
  Enqueue(queue_core, tid);
}

void SimMachine::Dispatch(int core, int tid, bool context_switch) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  Core& c = cores_[static_cast<size_t>(core)];
  assert(t.state == Thread::State::kReady || (!context_switch && c.running == tid));
  assert(context_switch ? c.running < 0 : true);

  if (context_switch && t.tenant == TenantClass::kPrimary) {
    metrics_.primary_sched_delay_us.Add(ToMicros(sim_->Now() - t.ready_since));
  }
  if (context_switch && tracer_ != nullptr && t.trace_ctx != 0 &&
      sim_->Now() > t.ready_since) {
    tracer_->Span(t.trace_ctx, "cpu.wait", SpanCategory::kCpuWait,
                  first_core_track_ + core, t.ready_since, sim_->Now());
  }

  SimDuration run_len = spec_.quantum;
  if (!t.loop) {
    run_len = std::min(run_len, t.remaining);
  }
  const bool capped = t.job >= 0 && jobs_[static_cast<size_t>(t.job)].rate_cap > 0;
  if (capped) {
    // Keep capped-job slices inside one accounting interval so usage is
    // always charged to the interval the slice started in.
    const SimTime now = sim_->Now();
    const SimTime boundary = (now / spec_.throttle_interval + 1) * spec_.throttle_interval;
    run_len = std::min(run_len, boundary - now);
  }
  run_len = std::max<SimDuration>(1, run_len);

  const SimDuration overhead = context_switch ? spec_.context_switch : 0;
  if (t.state != Thread::State::kRunning && t.job >= 0) {
    ++jobs_[static_cast<size_t>(t.job)].running_count;
  }
  t.state = Thread::State::kRunning;
  t.queued = false;
  t.core = core;
  t.slice_start = sim_->Now();
  t.slice_overhead = overhead;
  c.running = tid;
  SetCoreIdle(core, false);
  ++metrics_.dispatches;

  t.slice_event = sim_->Schedule(sim_->Now() + overhead + run_len,
                                 [this, core, tid] { OnSliceEnd(core, tid); });
  if (capped) {
    // May throttle the job immediately (preempting this thread again).
    ScheduleExhaustCheck(t.job);
  }
}

void SimMachine::NoteStopRunning(Thread& t) {
  if (t.job < 0) {
    return;
  }
  Job& job = jobs_[static_cast<size_t>(t.job)];
  --job.running_count;
  assert(job.running_count >= 0);
  if (job.rate_cap > 0) {
    ScheduleExhaustCheck(t.job);  // consumption rate dropped; no-op if throttled
  }
}

SimDuration SimMachine::ChargeRun(Thread& t) {
  const SimTime now = sim_->Now();
  const SimDuration elapsed = now - t.slice_start;
  if (elapsed <= 0) {
    return 0;
  }
  const SimDuration overhead = std::min(elapsed, t.slice_overhead);
  const SimDuration work = elapsed - overhead;
  const SimTime charge_start = t.slice_start;
  t.slice_start = now;
  t.slice_overhead -= overhead;
  metrics_.busy_ns[static_cast<int>(TenantClass::kOs)] += overhead;
  if (work > 0) {
    metrics_.busy_ns[static_cast<int>(t.tenant)] += work;
    if (!t.loop) {
      t.remaining -= work;
      assert(t.remaining >= 0);
    }
    if (t.job >= 0) {
      Job& job = jobs_[static_cast<size_t>(t.job)];
      job.cpu_time += work;
      if (job.rate_cap > 0) {
        // Charge the interval the slice started in (capped slices never span
        // a boundary by construction, modulo context-switch overhead).
        const int64_t idx = charge_start / spec_.throttle_interval;
        if (job.usage_interval != idx) {
          job.usage_interval = idx;
          job.usage = 0;
        }
        job.usage += work;
      }
    }
    if (tracer_ != nullptr && t.trace_ctx != 0) {
      tracer_->Span(t.trace_ctx, "cpu.run", SpanCategory::kService,
                    first_core_track_ + t.core, charge_start + overhead, now);
    }
  }
  return work;
}

void SimMachine::OnSliceEnd(int core, int tid) {
  // Preemption, kill, and re-dispatch cancel the slice event eagerly, so a
  // stale slice end can never fire.
  Thread& t = threads_[static_cast<size_t>(tid)];
  assert(t.state == Thread::State::kRunning && t.core == core);
  // This callback is the slice event firing: drop the stale handle now. The
  // yield path below parks the thread as kReady without re-arming, and a
  // later kill must not poke at a recycled slot through the old handle.
  t.slice_event = EventHandle();
  ChargeRun(t);

  if (!t.loop && t.remaining <= 0) {
    // Burst complete.
    NoteStopRunning(t);
    cores_[static_cast<size_t>(core)].running = -1;
    SetCoreIdle(core, true);
    FinishThread(tid, /*run_callback=*/true);
    if (cores_[static_cast<size_t>(core)].running < 0) {
      DispatchNext(core);
    }
    return;
  }

  // Quantum expired: yield to a waiting dispatchable thread if any, else
  // renew. A core queues only threads allowed on it.
  Core& c = cores_[static_cast<size_t>(core)];
  bool waiter_exists = false;
  for (int w = c.head; w >= 0; w = threads_[static_cast<size_t>(w)].q_next) {
    if (JobDispatchable(threads_[static_cast<size_t>(w)])) {
      waiter_exists = true;
      break;
    }
  }
  if (waiter_exists) {
    ++metrics_.preemptions;
    NoteStopRunning(t);
    t.state = Thread::State::kReady;
    t.ready_since = sim_->Now();
    c.running = -1;
    Enqueue(core, tid);
    DispatchNext(core);
  } else {
    Dispatch(core, tid, /*context_switch=*/false);  // fresh quantum, no switch cost
  }
}

void SimMachine::DispatchNext(int core) {
  Core& c = cores_[static_cast<size_t>(core)];
  assert(c.running < 0);

  // The front-most dispatchable thread of this core's queue. A throttled or
  // suspended one stays queued until its job can run again.
  int chosen = -1;
  for (int tid = c.head; tid >= 0; tid = threads_[static_cast<size_t>(tid)].q_next) {
    if (JobDispatchable(threads_[static_cast<size_t>(tid)])) {
      chosen = tid;
      RemoveFromQueue(tid);
      break;
    }
  }

  if (chosen < 0) {
    // Work stealing: take the longest-waiting eligible thread from any other
    // core's queue. This keeps the machine approximately work-conserving
    // while preserving the no-wake-preemption property. Only non-empty queues
    // are visited, in core order; one whose `reach` lacks this core queues no
    // thread allowed here and is skipped.
    SimTime oldest = 0;
    queued_cores_.ForEach([&](int other) {
      Core& oc = cores_[static_cast<size_t>(other)];
      if (other == core || !oc.reach.Test(core)) {
        return;
      }
      CpuSet walked;  // exact union of the masks passed over
      int found = -1;
      for (int w = oc.head; w >= 0; w = threads_[static_cast<size_t>(w)].q_next) {
        const Thread& waiter = threads_[static_cast<size_t>(w)];
        if (Allowed(waiter).Test(core) && JobDispatchable(waiter)) {
          found = w;  // queues are FIFO; the front-most eligible is the oldest here
          break;
        }
        walked |= Allowed(waiter);
      }
      if (found < 0) {
        oc.reach = walked;  // the whole queue was walked: tighten to the exact union
        return;
      }
      const SimTime since = threads_[static_cast<size_t>(found)].ready_since;
      if (chosen < 0 || since < oldest) {
        chosen = found;
        oldest = since;
      }
    });
    if (chosen >= 0) {
      RemoveFromQueue(chosen);
      ++metrics_.steals;
    }
  }

  if (chosen >= 0) {
    Dispatch(core, chosen, /*context_switch=*/true);
  } else {
    SetCoreIdle(core, true);
  }
}

void SimMachine::Enqueue(int core, int tid) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  Core& c = cores_[static_cast<size_t>(core)];
  assert(!t.queued && t.q_prev < 0 && t.q_next < 0);
  t.core = core;
  t.queued = true;
  t.q_prev = c.tail;
  if (c.tail >= 0) {
    threads_[static_cast<size_t>(c.tail)].q_next = tid;
  } else {
    c.head = tid;
  }
  c.tail = tid;
  if (c.len++ == 0) {
    queued_cores_.Set(core);
  }
  c.reach |= Allowed(t);
}

void SimMachine::RemoveFromQueue(int tid) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  assert(t.queued && t.core >= 0);
  Core& c = cores_[static_cast<size_t>(t.core)];
  if (t.q_prev >= 0) {
    threads_[static_cast<size_t>(t.q_prev)].q_next = t.q_next;
  } else {
    c.head = t.q_next;
  }
  if (t.q_next >= 0) {
    threads_[static_cast<size_t>(t.q_next)].q_prev = t.q_prev;
  } else {
    c.tail = t.q_prev;
  }
  if (--c.len == 0) {
    c.reach = CpuSet();
    queued_cores_.Clear(t.core);
  }
  t.q_prev = -1;
  t.q_next = -1;
  t.queued = false;
  t.core = -1;
}

void SimMachine::ThrottleJob(int job_id) {
  Job& job = jobs_[static_cast<size_t>(job_id)];
  if (job.throttled) {
    return;
  }
  job.throttled = true;
  sim_->CancelOwned(job.exhaust_event);  // budget checks are moot while throttled
  const size_t freed_base = freed_cores_.size();
  for (int tid : job.threads) {
    Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state != Thread::State::kRunning) {
      continue;
    }
    ChargeRun(t);
    sim_->CancelOwned(t.slice_event);
    ++metrics_.preemptions;
    NoteStopRunning(t);
    const int core = t.core;
    cores_[static_cast<size_t>(core)].running = -1;
    freed_cores_.push_back(core);
    t.state = Thread::State::kReady;
    t.ready_since = sim_->Now();
    Enqueue(core, tid);
  }
  if (!sim_->Pending(job.unthrottle_event)) {
    const SimTime boundary =
        (sim_->Now() / spec_.throttle_interval + 1) * spec_.throttle_interval;
    job.unthrottle_event = sim_->Schedule(boundary, [this, job_id] { UnthrottleJob(job_id); });
  }
  DispatchFreedCores(freed_base);
}

void SimMachine::DispatchFreedCores(size_t base) {
  for (size_t i = base; i < freed_cores_.size(); ++i) {
    const int core = freed_cores_[i];
    if (cores_[static_cast<size_t>(core)].running < 0) {
      SetCoreIdle(core, true);
      DispatchNext(core);
    }
  }
  freed_cores_.resize(base);
}

void SimMachine::UnthrottleJob(int job_id) {
  Job& job = jobs_[static_cast<size_t>(job_id)];
  job.throttled = false;
  // When called directly (cap removed mid-interval), the armed end-of-interval
  // unthrottle is stale; remove it instead of letting it fire as a no-op.
  // When this *is* the unthrottle event firing, the cancel is a benign no-op
  // and the reset drops the fired handle before its slot can recycle.
  sim_->CancelOwned(job.unthrottle_event);
  if (!job.live) {
    return;
  }
  // Budget resets lazily via RateBudgetLeft.
  ReplaceReadyThreads(job);
}

void SimMachine::ReplaceReadyThreads(const Job& job) {
  const size_t base = displaced_.size();
  displaced_.insert(displaced_.end(), job.threads.begin(), job.threads.end());
  for (size_t i = base; i < displaced_.size(); ++i) {
    const int tid = displaced_[i];
    Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state != Thread::State::kReady || !JobDispatchable(t)) {
      continue;
    }
    const int idle_core = PickIdleCore(Allowed(t), -1);
    if (idle_core < 0) {
      continue;  // other threads may have wider masks
    }
    if (t.queued) {
      RemoveFromQueue(tid);
    }
    Dispatch(idle_core, tid, /*context_switch=*/true);
  }
  displaced_.resize(base);
}

bool SimMachine::ArmIdleWatch(int lo, int hi, bool* flag) {
  assert(flag != nullptr && lo <= hi && lo >= 0);
  DisarmIdleWatch();
  if (idle_count_ < lo || idle_count_ > hi) {
    return false;
  }
  watch_lo_ = lo;
  watch_span_ = static_cast<uint32_t>(hi - lo);
  watch_flag_ = flag;
  *flag = true;
  return true;
}

void SimMachine::DisarmIdleWatch() {
  if (watch_flag_ != nullptr) {
    *watch_flag_ = false;
  }
  watch_lo_ = 0;
  watch_span_ = UINT32_MAX;
  watch_flag_ = nullptr;
}

void SimMachine::KickIdleCores(const CpuSet& mask) {
  for (int core = mask.Lowest(); core >= 0; core = mask.NextAfter(core)) {
    if (idle_mask_.Test(core) && cores_[static_cast<size_t>(core)].running < 0) {
      DispatchNext(core);
    }
  }
}

void SimMachine::FinishThread(int tid, bool run_callback) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  sim_->CancelOwned(t.slice_event);  // no-op on the completion path (already fired + cleared)
  if (t.job >= 0) {
    // O(1) swap-with-back: the job's last thread takes the freed position.
    std::vector<int>& siblings = jobs_[static_cast<size_t>(t.job)].threads;
    assert(siblings[static_cast<size_t>(t.job_pos)] == tid);
    const int last = siblings.back();
    siblings[static_cast<size_t>(t.job_pos)] = last;
    threads_[static_cast<size_t>(last)].job_pos = t.job_pos;
    siblings.pop_back();
  }
  CompletionFn callback = std::move(t.on_complete);  // leaves on_complete empty
  t.state = Thread::State::kFree;
  free_threads_.push_back(tid);
  if (run_callback && callback) {
    callback(sim_->Now());
  }
}

Status SimMachine::CheckInvariants() const {
  if (idle_count_ != idle_mask_.Count()) {
    return InternalError("incremental idle count " + std::to_string(idle_count_) +
                         " != idle mask popcount " + std::to_string(idle_mask_.Count()));
  }
  if (watch_flag_ != nullptr &&
      (!*watch_flag_ || static_cast<uint32_t>(idle_count_ - watch_lo_) > watch_span_)) {
    return InternalError("armed idle watch outside its range or with a cleared flag");
  }
  // Core / idle-mask agreement, and running threads point back at their core.
  std::vector<int> queue_appearances(threads_.size(), 0);
  CpuSet queued;  // {c : cores_[c].len > 0}
  for (int core = 0; core < spec_.num_cores; ++core) {
    const Core& c = cores_[static_cast<size_t>(core)];
    if (c.len > 0) {
      queued.Set(core);
    }
    if ((c.running < 0) != idle_mask_.Test(core)) {
      return InternalError("idle mask disagrees with core " + std::to_string(core));
    }
    if (c.running >= 0) {
      const Thread& t = threads_[static_cast<size_t>(c.running)];
      if (t.state != Thread::State::kRunning || t.core != core) {
        return InternalError("running thread state mismatch on core " + std::to_string(core));
      }
      if (!sim_->Pending(t.slice_event)) {
        return InternalError("running thread on core " + std::to_string(core) +
                             " has no pending slice event");
      }
    }
    // The FIFO: links agree both ways, tail and len match the walk, and
    // `reach` covers every queued thread's allowed mask. The walk is bounded
    // so a cycle is reported instead of looping forever.
    int prev = -1;
    size_t walked = 0;
    for (int tid = c.head; tid >= 0; tid = threads_[static_cast<size_t>(tid)].q_next) {
      if (static_cast<size_t>(tid) >= threads_.size() || ++walked > threads_.size()) {
        return InternalError("ready FIFO on core " + std::to_string(core) + " is corrupt");
      }
      const Thread& t = threads_[static_cast<size_t>(tid)];
      if (t.q_prev != prev) {
        return InternalError("ready FIFO back link broken at thread " + std::to_string(tid));
      }
      if (t.state != Thread::State::kReady || !t.queued || t.core != core) {
        return InternalError("queued thread state mismatch on core " + std::to_string(core));
      }
      if (!Allowed(t).Minus(c.reach).Empty()) {
        return InternalError("reach of core " + std::to_string(core) +
                             " misses the mask of queued thread " + std::to_string(tid));
      }
      ++queue_appearances[static_cast<size_t>(tid)];
      prev = tid;
    }
    if (c.tail != prev || static_cast<size_t>(c.len) != walked) {
      return InternalError("ready FIFO tail/len mismatch on core " + std::to_string(core));
    }
  }
  if (queued != queued_cores_) {
    return InternalError("non-empty-queue mask " + queued_cores_.ToString() +
                         " != cores with queued threads " + queued.ToString());
  }
  // Every ready+queued thread appears in exactly one queue, an unqueued one
  // has no links, and a running or queued thread's core is one it may use.
  for (size_t tid = 0; tid < threads_.size(); ++tid) {
    const Thread& t = threads_[tid];
    const int expected = t.state == Thread::State::kReady && t.queued ? 1 : 0;
    if (queue_appearances[tid] != expected) {
      return InternalError("thread " + std::to_string(tid) + " appears in " +
                           std::to_string(queue_appearances[tid]) + " queues, expected " +
                           std::to_string(expected));
    }
    if (!t.queued && (t.q_prev >= 0 || t.q_next >= 0)) {
      return InternalError("unqueued thread " + std::to_string(tid) + " has FIFO links");
    }
    if ((t.state == Thread::State::kRunning || t.queued) && !Allowed(t).Test(t.core)) {
      return InternalError("thread " + std::to_string(tid) + " sits on core " +
                           std::to_string(t.core) + " outside its job mask");
    }
    if (t.state != Thread::State::kRunning && sim_->Pending(t.slice_event)) {
      return InternalError("non-running thread " + std::to_string(tid) +
                           " still has a pending slice event");
    }
  }
  for (size_t job_id = 0; job_id < jobs_.size(); ++job_id) {
    const Job& job = jobs_[job_id];
    int running = 0;
    for (size_t pos = 0; pos < job.threads.size(); ++pos) {
      const Thread& t = threads_[static_cast<size_t>(job.threads[pos])];
      if (t.job != static_cast<int>(job_id)) {
        return InternalError("job thread list mismatch for job " + job.name);
      }
      if (t.job_pos != static_cast<int>(pos)) {
        return InternalError("thread " + std::to_string(job.threads[pos]) + " of job " +
                             job.name + " records position " + std::to_string(t.job_pos) +
                             ", sits at " + std::to_string(pos));
      }
      if (t.state == Thread::State::kRunning) {
        ++running;
      }
    }
    if (running != job.running_count) {
      return InternalError("job " + job.name + " running_count " +
                           std::to_string(job.running_count) + " != actual " +
                           std::to_string(running));
    }
  }
  // Accounting can never exceed machine capacity.
  if (metrics_.TotalBusy() > sim_->Now() * spec_.num_cores) {
    return InternalError("busy time exceeds machine capacity");
  }
  return OkStatus();
}

int SimMachine::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  const int pid = tracer->RegisterProcess(name_);
  for (int core = 0; core < spec_.num_cores; ++core) {
    const int track = tracer->RegisterTrack(pid, "core" + std::to_string(core));
    if (core == 0) {
      first_core_track_ = track;
    }
  }
  return pid;
}

void SimMachine::SettleAccounting() {
  for (Core& core : cores_) {
    if (core.running >= 0) {
      ChargeRun(threads_[static_cast<size_t>(core.running)]);
    }
  }
}

double SimMachine::UtilizationSince(SimTime since, const SimDuration busy_then[kNumTenantClasses],
                                    TenantClass tenant) const {
  const SimDuration window = sim_->Now() - since;
  if (window <= 0) {
    return 0;
  }
  const SimDuration delta =
      metrics_.busy_ns[static_cast<int>(tenant)] - busy_then[static_cast<int>(tenant)];
  return static_cast<double>(delta) / (static_cast<double>(window) * spec_.num_cores);
}

}  // namespace perfiso
