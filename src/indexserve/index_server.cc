#include "src/indexserve/index_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace perfiso {

namespace {

// Scales a microsecond cost by the query's size factor; at least 1 us.
SimDuration ScaledUs(double us, double size_factor) {
  return FromMicros(std::max(1.0, us * size_factor));
}

}  // namespace

IndexServer::IndexServer(SimMachine* machine, IoScheduler* ssd, IoScheduler* hdd,
                         const IndexServeConfig& config, uint64_t seed)
    : machine_(machine), ssd_(ssd), hdd_(hdd), config_(config), rng_(seed), seed_(seed) {
  assert(machine_ != nullptr && ssd_ != nullptr);
  job_ = machine_->CreateJob("indexserve");
  (void)machine_->AddJobMemory(job_, config_.working_set_bytes);
  ssd_->RegisterOwner(kIoOwnerIndexData, "indexserve-data", /*priority=*/0, /*weight=*/8);
  if (hdd_ != nullptr) {
    hdd_->RegisterOwner(kIoOwnerIndexLog, "indexserve-log", /*priority=*/0, /*weight=*/4);
  }
}

void IndexServer::ResetStats() {
  stats_ = Stats{};
  inflight_at_reset_ = inflight_;
}

void IndexServer::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, "indexserve");
}

void IndexServer::SubmitQuery(const QueryWork& work, QueryDoneFn done) {
  ++stats_.submitted;
  QueryState& q = Acquire(work, std::move(done));
  if (crashed_ || inflight_ >= config_.max_inflight) {
    // A crashed machine delivers no events: the connection is simply refused
    // (the cluster counts the leaf as failed for this query). Either way the
    // query ends here with a zero-length dropped trace, so rejected queries
    // appear in summaries.
    ++(crashed_ ? stats_.dropped_crash : stats_.dropped_admission);
    EndQuery(q, ResultOf(q, /*dropped=*/true));
    return;
  }
  ++inflight_;
  // Mix in the server identity: each machine holds a different index
  // partition, so the same query does *different* work on each leaf. This is
  // what makes the MLA see a max over independent leaf latencies [15].
  q.rng = Rng(work.seed ^ (seed_ * 0x9e3779b97f4a7c15ULL));
  ChunkSlot first_attempt;
  first_attempt.attempts = config_.chunk_retry.enabled ? 1 : 0;
  q.chunks.assign(static_cast<size_t>(work.fanout), first_attempt);

  // Network receive path runs in kernel context (OS tenant, outside the job).
  machine_->SpawnThread(
      TenantClass::kOs, JobId{}, ScaledUs(config_.receive_cpu_us, 1.0),
      [this, ref = q.ref()](SimTime) {
        if (QueryState* live = Find(ref)) {
          StartParse(*live);
        }
      },
      q.trace_ctx);
}

IndexServer::QueryState& IndexServer::Acquire(const QueryWork& work, QueryDoneFn done) {
  if (free_slots_.empty()) {
    const auto index = static_cast<uint32_t>(queries_.size());
    queries_.emplace_back().index = index;
    free_slots_.push_back(index);
  }
  QueryState& q = queries_[free_slots_.back()];
  free_slots_.pop_back();
  q.live = true;
  q.serial = next_serial_++;
  q.work = work;
  q.done = std::move(done);
  q.arrival = machine_->sim()->Now();
  q.chunks_left = work.fanout;
  q.fanout_closed = false;
  q.trace_ctx = work.trace_ctx;
  q.owns_trace = work.trace_ctx == 0 && tracer_ != nullptr;
  if (q.owns_trace) {
    q.trace_ctx = tracer_->BeginTrace("isq", q.arrival);
  }
  return q;
}

IndexServer::QueryState* IndexServer::Find(QueryRef ref) {
  QueryState& q = queries_[ref.index];
  return q.gen == ref.gen ? &q : nullptr;
}

QueryResult IndexServer::ResultOf(const QueryState& q, bool dropped) const {
  QueryResult result;
  result.id = q.work.id;
  result.submit_time = q.arrival;
  result.finish_time = machine_->sim()->Now();
  result.latency_ms = ToMillis(result.finish_time - q.arrival);
  result.dropped = dropped;
  result.chunks_total = q.work.fanout;
  result.chunks_served = q.work.fanout - q.chunks_left;
  result.degraded = q.fanout_closed;
  return result;
}

void IndexServer::QueryState::CancelTimers(Simulator* sim) {
  for (ChunkSlot& slot : chunks) {
    sim->CancelOwned(slot.hedge_event);
  }
  for (ChunkSlot& slot : chunks) {
    sim->CancelOwned(slot.retry_event);
  }
  sim->CancelOwned(deadline_event);
}

void IndexServer::EndQuery(QueryState& q, const QueryResult& result) {
  assert(q.live);
  q.CancelTimers(machine_->sim());
  if (q.owns_trace) {
    tracer_->EndTrace(q.trace_ctx, result.finish_time, result.dropped);
  }
  QueryDoneFn done = std::move(q.done);
  q.done = nullptr;
  q.chunks.clear();
  q.live = false;
  ++q.gen;
  free_slots_.push_back(q.index);
  if (done) {
    done(result);
  }
}

bool IndexServer::ExpireIfOverdue(QueryState& q) {
  // Server-side shedding: once a query is past its deadline, further work is
  // wasted; the paper observes that heavy drops *reduce* primary CPU
  // utilization (§6.1.2), which implies abandoned processing.
  if (machine_->sim()->Now() - q.arrival <= config_.timeout) {
    return false;
  }
  --inflight_;
  ++stats_.dropped_timeout;
  EndQuery(q, ResultOf(q, /*dropped=*/true));
  return true;
}

void IndexServer::StartParse(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  // Parse and query-understanding run as one burst on the same pool thread
  // (no intermediate wake point).
  machine_->SpawnThread(
      TenantClass::kPrimary, job_,
      ScaledUs(config_.parse_cpu_us + config_.understand_cpu_us, q.work.size_factor),
      [this, ref = q.ref()](SimTime) {
        if (QueryState* live = Find(ref)) {
          StartFanout(*live);
        }
      },
      q.trace_ctx);
}

void IndexServer::StartFanout(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  // All chunk workers wake within the same instant — this is the burst the
  // buffer cores exist to absorb.
  for (int chunk = 0; chunk < q.work.fanout; ++chunk) {
    StartChunk(q, chunk, /*is_hedge=*/false);
  }
  if (config_.degrade_deadline > 0) {
    const SimTime deadline = q.arrival + config_.degrade_deadline;
    if (deadline > machine_->sim()->Now()) {
      q.deadline_event = machine_->sim()->Schedule(deadline, [this, ref = q.ref()] {
        if (QueryState* live = Find(ref)) {
          live->deadline_event = EventHandle();
          MaybeDegrade(*live);
        }
      });
    }
  }
}

void IndexServer::MaybeDegrade(QueryState& q) {
  if (q.fanout_closed || q.chunks_left == 0) {
    return;
  }
  const int total = q.work.fanout;
  const int served = total - q.chunks_left;
  if (static_cast<double>(served) < config_.min_chunk_coverage * static_cast<double>(total)) {
    // Below the k-of-n floor: keep waiting — hedges/retries may still recover
    // the missing chunks, and the client timeout is the backstop.
    return;
  }
  q.fanout_closed = true;
  // The open attempts are abandoned: their timers leave the event queue and
  // late completions are ignored by the fanout_closed guard.
  q.CancelTimers(machine_->sim());
  if (tracer_ != nullptr) {
    tracer_->Instant("query.degraded", track_, machine_->sim()->Now());
  }
  StartRank(q);
}

void IndexServer::StartChunk(QueryState& q, int chunk, bool is_hedge) {
  const SimDuration cpu = FromMicros(std::max(
      1.0, q.rng.LogNormal(std::log(config_.chunk_cpu_median_us), config_.chunk_cpu_sigma) *
               q.work.size_factor));
  const bool miss = q.rng.Bernoulli(config_.chunk_miss_rate);

  machine_->SpawnThread(
      TenantClass::kPrimary, job_, cpu,
      [this, ref = q.ref(), chunk, miss](SimTime) {
        QueryState* live = Find(ref);
        if (live == nullptr) {
          return;
        }
        if (!miss) {
          ChunkDone(*live, chunk);
          return;
        }
        IoRequest read;
        read.owner = kIoOwnerIndexData;
        read.op = IoOp::kRead;
        read.bytes = config_.chunk_read_bytes;
        read.sequential = false;
        read.trace_ctx = live->trace_ctx;
        // The post-read burst runs even if the query has ended meanwhile (the
        // read's CPU work is not abandoned), so its cost and trace context
        // are captured by value rather than read from the slot.
        read.on_complete = [this, ref, chunk,
                            cost = ScaledUs(config_.chunk_post_read_cpu_us,
                                            live->work.size_factor),
                            trace_ctx = live->trace_ctx](SimTime) {
          machine_->SpawnThread(
              TenantClass::kPrimary, job_, cost,
              [this, ref, chunk](SimTime) {
                if (QueryState* still_live = Find(ref)) {
                  ChunkDone(*still_live, chunk);
                }
              },
              trace_ctx);
        };
        ssd_->Submit(std::move(read));
      },
      q.trace_ctx);

  if (!is_hedge) {
    ++chunks_started_;
    if (config_.chunk_retry.enabled) {
      ArmRetryTimer(q, chunk);
    }
  }
  // Hedge slow lookups once: if this chunk has not completed after
  // hedge_delay, launch a duplicate lookup and take whichever finishes first.
  // The hedge budget caps the added load under systemic slowness.
  if (!is_hedge && config_.hedging_enabled) {
    q.chunks[static_cast<size_t>(chunk)].hedge_event =
        machine_->sim()->ScheduleAfter(config_.hedge_delay, [this, ref = q.ref(), chunk] {
          QueryState* live = Find(ref);
          if (live == nullptr) {
            return;
          }
          ChunkSlot& slot = live->chunks[static_cast<size_t>(chunk)];
          // The timer just fired; clear the stored handle so a later
          // ChunkDone/CancelTimers pass does not cancel it twice.
          slot.hedge_event = EventHandle();
          const bool budget_ok =
              static_cast<double>(stats_.hedges_issued) <
              config_.hedge_budget_fraction * static_cast<double>(chunks_started_);
          if (!slot.done && !slot.hedged && budget_ok) {
            slot.hedged = true;
            ++stats_.hedges_issued;
            if (tracer_ != nullptr) {
              tracer_->Instant("hedge.issued", track_, machine_->sim()->Now());
            }
            StartChunk(*live, chunk, /*is_hedge=*/true);
          }
        });
  }
}

void IndexServer::ChunkDone(QueryState& q, int chunk) {
  ChunkSlot& slot = q.chunks[static_cast<size_t>(chunk)];
  if (q.fanout_closed || slot.done) {
    return;  // degraded, or the other copy of a hedged lookup finished
  }
  slot.done = true;
  // The lookup beat its hedge timer (the common case): pull the timer out of
  // the event queue instead of letting it fire as a dead no-op.
  machine_->sim()->CancelOwned(slot.hedge_event);
  machine_->sim()->CancelOwned(slot.retry_event);
  if (--q.chunks_left == 0) {
    machine_->sim()->CancelOwned(q.deadline_event);
    StartRank(q);
  }
}

void IndexServer::ArmRetryTimer(QueryState& q, int chunk) {
  q.chunks[static_cast<size_t>(chunk)].retry_event =
      machine_->sim()->ScheduleAfter(config_.chunk_retry.timeout, [this, ref = q.ref(), chunk] {
        if (QueryState* live = Find(ref)) {
          OnChunkTimeout(*live, chunk);
        }
      });
}

void IndexServer::OnChunkTimeout(QueryState& q, int chunk) {
  ChunkSlot& slot = q.chunks[static_cast<size_t>(chunk)];
  slot.retry_event = EventHandle();  // the timer just fired
  if (q.fanout_closed || slot.done) {
    return;
  }
  ++stats_.timeouts_detected;
  const RetryPolicy& policy = config_.chunk_retry;
  if (slot.attempts >= policy.max_attempts) {
    ++stats_.retry_exhausted;
    return;  // budget spent; the degrade deadline / client timeout take over
  }
  const SimDuration delay = ComputeBackoff(policy, slot.attempts - 1, &q.rng);
  if (machine_->sim()->Now() + delay >= q.arrival + config_.timeout) {
    // A retry that cannot answer before the client gives up is wasted work.
    ++stats_.retries_suppressed_deadline;
    return;
  }
  slot.retry_event = machine_->sim()->ScheduleAfter(delay, [this, ref = q.ref(), chunk] {
    QueryState* live = Find(ref);
    if (live == nullptr) {
      return;
    }
    ChunkSlot& fired = live->chunks[static_cast<size_t>(chunk)];
    fired.retry_event = EventHandle();
    if (live->fanout_closed || fired.done) {
      return;
    }
    ++stats_.retries_issued;
    ++fired.attempts;
    if (tracer_ != nullptr) {
      tracer_->Instant("chunk.retry", track_, machine_->sim()->Now());
    }
    // Re-issue as a duplicate lookup (like a hedge: no budget increment,
    // first answer wins) and arm the next per-attempt timeout.
    StartChunk(*live, chunk, /*is_hedge=*/true);
    ArmRetryTimer(*live, chunk);
  });
}

void IndexServer::StartRank(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  const SimDuration cpu = FromMicros(std::max(
      1.0, q.rng.LogNormal(std::log(config_.rank_cpu_median_us), config_.rank_cpu_sigma) *
               q.work.size_factor));
  machine_->SpawnThread(
      TenantClass::kPrimary, job_, cpu,
      [this, ref = q.ref()](SimTime) {
        if (QueryState* live = Find(ref)) {
          StartSnippets(*live);
        }
      },
      q.trace_ctx);
}

void IndexServer::StartSnippets(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  if (config_.snippet_reads <= 0) {
    FinishQuery(q);
    return;
  }
  // Dependent document lookups: each read's target comes from the previous
  // one, so they serialize (this is deliberately on the critical path).
  q.snippet_reads_left = config_.snippet_reads;
  SubmitSnippetRead(q);
}

void IndexServer::SubmitSnippetRead(QueryState& q) {
  IoRequest read;
  read.owner = kIoOwnerIndexData;
  read.op = IoOp::kRead;
  read.bytes = config_.snippet_read_bytes;
  read.sequential = false;
  read.trace_ctx = q.trace_ctx;
  read.on_complete = [this, ref = q.ref()](SimTime) {
    QueryState* live = Find(ref);
    if (live == nullptr) {
      return;
    }
    if (--live->snippet_reads_left > 0) {
      SubmitSnippetRead(*live);
      return;
    }
    machine_->SpawnThread(
        TenantClass::kPrimary, job_,
        ScaledUs(config_.snippet_cpu_us, live->work.size_factor),
        [this, ref](SimTime) {
          if (QueryState* still_live = Find(ref)) {
            FinishQuery(*still_live);
          }
        },
        live->trace_ctx);
  };
  ssd_->Submit(std::move(read));
}

void IndexServer::FinishQuery(QueryState& q) {
  // Completion requires a log append; if the log pipeline is backed up past
  // its cap (HDD saturated), the query stalls here until space frees up.
  if (hdd_ != nullptr &&
      log_buffered_bytes_ + log_inflight_bytes_ >= config_.log_buffer_cap_bytes) {
    ++stats_.log_stalls;
    if (tracer_ != nullptr) {
      tracer_->Instant("log.stall", track_, machine_->sim()->Now());
    }
    log_waiters_.push_back(q.ref());
    return;
  }
  AppendLog(q);
  CompleteNow(q);
}

void IndexServer::CompleteNow(QueryState& q) {
  --inflight_;
  if (crashed_) {
    // Invariant violation recorded for the checker: a crashed server must not
    // deliver completions (Crash() fails every live query first).
    ++stats_.completions_while_crashed;
  }
  // Network send path (OS tenant).
  machine_->SpawnThread(TenantClass::kOs, JobId{}, ScaledUs(config_.send_cpu_us, 1.0), nullptr);

  const QueryResult result =
      ResultOf(q, /*dropped=*/machine_->sim()->Now() - q.arrival > config_.timeout);
  if (result.dropped) {
    ++stats_.dropped_timeout;
  } else {
    ++stats_.completed;
    stats_.latency_ms.Add(result.latency_ms);
    stats_.coverage.Add(result.Coverage());
    if (result.degraded) {
      ++stats_.completed_degraded;
    }
  }
  EndQuery(q, result);
}

void IndexServer::AppendLog(const QueryState& q) {
  if (hdd_ == nullptr) {
    return;
  }
  log_buffered_bytes_ +=
      static_cast<int64_t>(static_cast<double>(config_.log_bytes_per_query) *
                           q.work.size_factor);
  MaybeFlushLog();
}

void IndexServer::MaybeFlushLog() {
  while (log_buffered_bytes_ >= config_.log_flush_bytes) {
    const int64_t flush_bytes = config_.log_flush_bytes;
    log_buffered_bytes_ -= flush_bytes;
    log_inflight_bytes_ += flush_bytes;
    IoRequest write;
    write.owner = kIoOwnerIndexLog;
    write.op = IoOp::kWrite;
    write.bytes = flush_bytes;
    write.sequential = true;
    write.on_complete = [this, flush_bytes](SimTime) {
      log_inflight_bytes_ -= flush_bytes;
      // Admit stalled completions now that buffer space is available. A
      // stalled query has no timer left to end it, so each waiter is live.
      while (!log_waiters_.empty() &&
             log_buffered_bytes_ + log_inflight_bytes_ < config_.log_buffer_cap_bytes) {
        QueryState* waiter = Find(log_waiters_.front());
        log_waiters_.pop_front();
        assert(waiter != nullptr);
        AppendLog(*waiter);
        CompleteNow(*waiter);
      }
    };
    hdd_->Submit(std::move(write));
  }
}

void IndexServer::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  if (tracer_ != nullptr) {
    tracer_->Instant("server.crash", track_, machine_->sim()->Now());
  }
  // Fail every live query exactly once, in submission order: conservation
  // moves each of them to dropped_crash. Collect the refs first — done
  // callbacks may re-enter SubmitQuery (closed-loop clients resubmit), which
  // the crashed server rejects through a slot of its own.
  std::vector<QueryRef> live;
  for (const QueryState& q : queries_) {
    if (q.live) {
      live.push_back(q.ref());
    }
  }
  std::sort(live.begin(), live.end(), [this](QueryRef a, QueryRef b) {
    return queries_[a.index].serial < queries_[b.index].serial;
  });
  for (const QueryRef ref : live) {
    if (QueryState* q = Find(ref)) {
      --inflight_;
      ++stats_.dropped_crash;
      EndQuery(*q, ResultOf(*q, /*dropped=*/true));
    }
  }
  // The log pipeline dies with the process: buffered bytes are lost and
  // stalled completions were failed above. In-flight HDD writes are cancelled
  // by the rig (IoScheduler::CancelAll), so their completions never fire.
  log_waiters_.clear();
  log_buffered_bytes_ = 0;
  log_inflight_bytes_ = 0;
}

void IndexServer::Restart() {
  if (!crashed_) {
    return;
  }
  crashed_ = false;
  if (tracer_ != nullptr) {
    tracer_->Instant("server.restart", track_, machine_->sim()->Now());
  }
}

}  // namespace perfiso
