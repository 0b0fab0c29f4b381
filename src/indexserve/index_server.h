// IndexServe: a model of the Bing web-index serving node used as the paper's
// primary tenant.
//
// The real service is proprietary; this model reproduces the properties
// PerfIso depends on (§2.1):
//   1. layered, parallel query processing — receive -> parse -> parallel
//      chunk lookups (fan-out) -> rank -> snippet generation -> send;
//   2. millisecond service times with a strict tail (standalone: ~4 ms
//      median, ~12 ms P99, §6.1.1);
//   3. extreme burstiness — a query wakes its whole fan-out within
//      microseconds, so many workers become ready almost simultaneously;
//   4. hedged requests: slow chunk lookups are retried in parallel, which is
//      why the paper observes primary CPU *rising* under interference
//      ("IndexServe tries to compensate ... by starting more workers",
//      §6.1.2);
//   5. SSD reads on index-cache misses (the index slice lives on the striped
//      SSD volume, exclusive to the primary) and asynchronous query logging
//      to the shared HDD volume, with bounded buffering — a saturated HDD
//      eventually backpressures query completion, which is the channel disk
//      bullies hurt the primary through.
//
// Queries time out (client-side) at `timeout`; timed-out queries count as
// dropped and are excluded from the latency distribution, as in the paper.
#ifndef PERFISO_SRC_INDEXSERVE_INDEX_SERVER_H_
#define PERFISO_SRC_INDEXSERVE_INDEX_SERVER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/disk/io_scheduler.h"
#include "src/fault/retry.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/inline_fn.h"
#include "src/util/rng.h"
#include "src/util/slot_pool.h"
#include "src/util/stats.h"
#include "src/workload/query_trace.h"

namespace perfiso {

// Well-known I/O owner ids for the primary's traffic.
inline constexpr int kIoOwnerIndexData = 1;  // SSD index reads
inline constexpr int kIoOwnerIndexLog = 2;   // HDD query logging

struct IndexServeConfig {
  // --- CPU stage costs (microseconds, multiplied by the query size factor) --
  double receive_cpu_us = 100;  // network receive path, charged as OS time
  double parse_cpu_us = 200;
  // Query-understanding stage (spell/intent/rewrite), serialized before the
  // fan-out.
  double understand_cpu_us = 500;
  // Chunk lookup cost ~ LogNormal(ln(chunk_cpu_median_us), chunk_cpu_sigma).
  double chunk_cpu_median_us = 210;
  double chunk_cpu_sigma = 0.85;
  double chunk_post_read_cpu_us = 30;  // decompress/score after an SSD read
  // Rank cost ~ LogNormal(ln(rank_cpu_median_us), rank_cpu_sigma).
  double rank_cpu_median_us = 1400;
  double rank_cpu_sigma = 0.40;
  double snippet_cpu_us = 300;
  double send_cpu_us = 100;  // network send path, charged as OS time

  // --- Index cache / SSD ----------------------------------------------------
  double chunk_miss_rate = 0.5;  // fraction of lookups that read the SSD
  int64_t chunk_read_bytes = 64 * 1024;
  // Snippet/document reads are issued sequentially (dependent lookups).
  int snippet_reads = 3;
  int64_t snippet_read_bytes = 64 * 1024;

  // --- Hedging (tail-latency compensation) ----------------------------------
  bool hedging_enabled = true;
  SimDuration hedge_delay = FromMillis(10);
  // At most this fraction of started chunk lookups may be hedged (a budget,
  // as in TPC/DDS-style hedging [15, 17]); prevents hedge storms from
  // melting the server when every lookup is slow.
  double hedge_budget_fraction = 0.1;

  // --- Client timeout & admission -------------------------------------------
  SimDuration timeout = FromMillis(450);
  int max_inflight = 1000;

  // --- Graceful degradation (k-of-n chunk coverage) --------------------------
  // When positive, a per-query deadline timer fires this long after arrival;
  // if the fan-out is still open and at least min_chunk_coverage of the chunks
  // have answered, the query closes its fan-out and proceeds to rank with
  // partial coverage (recorded per query, counted as completed_degraded).
  // 0 disables the timer entirely — no event is scheduled, digests are
  // bit-identical to the pre-degradation behavior.
  SimDuration degrade_deadline = 0;
  double min_chunk_coverage = 0.5;

  // --- Chunk retry (timeout detection + capped exponential backoff) ----------
  // Disabled by default: no per-attempt timers, no RNG draws, no digest
  // drift. When enabled, every chunk attempt arms a timeout; a lost chunk is
  // re-issued after ComputeBackoff(...) unless the backoff would land past
  // the client timeout (suppressed, the deadline/timeout path takes over).
  RetryPolicy chunk_retry;

  // --- HDD logging -----------------------------------------------------------
  int64_t log_bytes_per_query = 2048;
  int64_t log_flush_bytes = 256 * 1024;
  // Completions stall when this much log data is waiting to reach the HDD.
  int64_t log_buffer_cap_bytes = 4 * 1024 * 1024;

  // Fixed working set (index cache): the paper's setup uses ~110 GB.
  int64_t working_set_bytes = 110LL * 1024 * 1024 * 1024;
};

struct QueryResult {
  uint64_t id = 0;
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  bool dropped = false;  // timed out, rejected at admission, or lost to a crash
  double latency_ms = 0;
  // Chunk coverage: how much of the fan-out answered before the query ended.
  // Full-coverage completions have chunks_served == chunks_total; degraded
  // completions (k-of-n answers under a deadline) have fewer, and dropped
  // queries report what had answered when they ended (0 for a reject).
  int chunks_total = 0;
  int chunks_served = 0;
  bool degraded = false;  // the degrade deadline closed the fan-out early

  double Coverage() const {
    return chunks_total == 0 ? 1.0
                             : static_cast<double>(chunks_served) / static_cast<double>(chunks_total);
  }
};

class IndexServer {
 public:
  using QueryDoneFn = InlineFn<void(const QueryResult&)>;

  // `ssd` may not be null (index reads). `hdd` may be null, disabling the
  // logging path (useful for CPU-only experiments and unit tests).
  IndexServer(SimMachine* machine, IoScheduler* ssd, IoScheduler* hdd,
              const IndexServeConfig& config, uint64_t seed);

  IndexServer(const IndexServer&) = delete;
  IndexServer& operator=(const IndexServer&) = delete;

  // Processes one query; `done` (optional) fires at completion or drop.
  void SubmitQuery(const QueryWork& work, QueryDoneFn done = nullptr);

  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;          // within the timeout (includes degraded)
    int64_t completed_degraded = 0; // subset of completed: closed at partial coverage
    int64_t dropped_timeout = 0;
    int64_t dropped_admission = 0;
    int64_t dropped_crash = 0;      // failed by a crash, or rejected while down
    int64_t hedges_issued = 0;
    int64_t log_stalls = 0;
    int64_t timeouts_detected = 0;  // per-attempt chunk timeouts that fired
    int64_t retries_issued = 0;
    int64_t retry_exhausted = 0;    // chunk timed out with no attempts left
    int64_t retries_suppressed_deadline = 0;  // backoff would land past the deadline
    // Invariant counter (InvariantChecker asserts it stays 0): a query must
    // never reach completion while its server is crashed.
    int64_t completions_while_crashed = 0;
    LatencyRecorder latency_ms;     // completed queries only
    LatencyRecorder coverage;       // per completed query, fraction in [0, 1]

    int64_t TotalDropped() const {
      return dropped_timeout + dropped_admission + dropped_crash;
    }
    double DropFraction() const {
      return submitted == 0 ? 0 : static_cast<double>(TotalDropped()) / submitted;
    }
  };

  const Stats& stats() const { return stats_; }
  // Clears counters/latencies (used to discard warm-up, §5.3).
  void ResetStats();

  // Registers an event track under the machine's tracer process (hedge
  // issues, log stalls). Queries submitted afterwards carry a trace context
  // through every stage: adopted from QueryWork::trace_ctx when the cluster
  // minted one, otherwise minted here with scope "isq" and ended at
  // completion, timeout, or admission drop.
  void EnableTracing(Tracer* tracer, int process);

  // --- Fault injection: process crash / restart ------------------------------
  // Crash models the index-serving process dying: every live query fails
  // exactly once (conservation moves it to dropped_crash), its hedge/retry/
  // deadline timers leave the event queue, and the log pipeline state is
  // lost. New submissions are rejected (dropped_crash) until Restart(). The
  // caller (IndexNodeRig::Crash) also cancels in-flight disk I/O.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  int inflight() const { return inflight_; }
  // Queries that were in flight when ResetStats last ran; they complete (or
  // drop) after the reset without a matching `submitted` tick. Conservation
  // therefore reads: submitted + inflight_at_reset ==
  // completed + dropped_* + inflight.
  int64_t inflight_at_reset() const { return inflight_at_reset_; }
  // Cumulative non-hedge chunk attempts; the hedge budget's denominator.
  int64_t chunks_started() const { return chunks_started_; }
  // Query slots currently held. Every in-flight query holds one and ending a
  // query frees it, so this equals inflight() at any observation point;
  // InvariantChecker asserts it (a leaked or double-freed slot).
  int64_t occupied_slots() const { return queries_.occupied(); }
  JobId job() const { return job_; }
  SimMachine* machine() const { return machine_; }
  const IndexServeConfig& config() const { return config_; }

 private:
  // Per-chunk fan-out state: completion/hedge flags, attempt count, and the
  // armed retry/hedge timers, one slot per chunk.
  struct ChunkSlot {
    // Armed per-attempt timeout (or pending backoff wait); cancelled when the
    // chunk completes or the query ends. Lifecycle owner:
    // QueryState::CancelTimers, which IndexServer::EndQuery runs on every
    // terminal path.
    EventHandle retry_event;  // NOLINT(perfiso-LIFE-001)
    // Armed hedge timer; cancelled the moment the chunk completes (or the
    // query ends), so hedge timers for fast lookups — the overwhelming
    // majority — leave the event queue instead of firing as dead no-ops.
    // Lifecycle owner: QueryState::CancelTimers, as above.
    EventHandle hedge_event;  // NOLINT(perfiso-LIFE-001)
    // Attempts issued (original + retries, hedges excluded); meaningful only
    // when the retry policy is enabled.
    uint8_t attempts = 0;
    bool done = false;
    bool hedged = false;
  };

  // One query in flight. The server owns these outright in a slot pool;
  // callbacks refer to them only through `ref`, its holding of the slot, so a
  // callback that outlives its query finds nothing, even after the slot was
  // reused.
  struct QueryState {
    // Cancels every timer the query owns: hedges, then retries, then the
    // degrade deadline.
    void CancelTimers(Simulator* sim);

    SlotRef ref;
    uint64_t serial = 0;  // submission order; Crash() fails queries in it
    QueryWork work;
    QueryDoneFn done;
    Rng rng{0};
    SimTime arrival = 0;
    // Chunks not yet answered; frozen when the degrade deadline closes the
    // fan-out, so fanout - chunks_left is always the coverage.
    int chunks_left = 0;
    // One slot per fan-out chunk; the vector keeps its capacity across the
    // queries that reuse this slot.
    std::vector<ChunkSlot> chunks;
    EventHandle deadline_event;  // armed only when degrade_deadline > 0
    // Set when the deadline closed the fan-out at partial coverage: late
    // chunk completions are ignored from then on.
    bool fanout_closed = false;
    int snippet_reads_left = 0;
    uint64_t trace_ctx = 0;
    bool owns_trace = false;  // minted here (standalone) vs adopted from the TLA
  };

  // Takes a slot for a new query and mints its trace when it has none.
  QueryState& Acquire(const QueryWork& work, QueryDoneFn done);
  QueryResult ResultOf(const QueryState& q, bool dropped) const;
  // The one way a query ends (reject, expiry, completion, crash): cancels its
  // timers, ends the trace it owns, frees the slot, then hands `result` to
  // done. done may re-enter SubmitQuery, so it is moved out first and the
  // slot is not touched after the call.
  void EndQuery(QueryState& q, const QueryResult& result);
  // Ends the query if it is past its deadline; returns true if it did.
  bool ExpireIfOverdue(QueryState& q);
  // Arms the per-attempt chunk timeout (retry must be enabled).
  void ArmRetryTimer(QueryState& q, int chunk);
  // Per-attempt timeout fired: re-issues the chunk after a capped exponential
  // backoff, jittered from the query's own stream.
  void OnChunkTimeout(QueryState& q, int chunk);
  // Degrade-deadline fired: if coverage has reached the k-of-n floor, close
  // the fan-out and rank with partial results.
  void MaybeDegrade(QueryState& q);
  void StartParse(QueryState& q);
  void StartFanout(QueryState& q);
  // A chunk lookup runs in named stages, each reached from a callback that
  // names the query by ref: StartChunk spawns the lookup's CPU burst;
  // ChunkCpuDone answers a cache hit or submits the index read on a miss;
  // ChunkReadDone spawns the post-read burst; ChunkPostReadDone answers.
  void StartChunk(QueryState& q, int chunk, bool is_hedge);
  void ChunkCpuDone(SlotRef ref, int chunk, bool miss);
  void ChunkReadDone(SlotRef ref, int chunk, SimDuration cost, uint64_t trace_ctx);
  void ChunkPostReadDone(SlotRef ref, int chunk);
  // The chunk answered: the first answer counts, and the last one starts rank.
  void ChunkDone(QueryState& q, int chunk);
  void StartRank(QueryState& q);
  void StartSnippets(QueryState& q);
  // Issues one dependent snippet read; its completion submits the next.
  void SubmitSnippetRead(QueryState& q);
  void FinishQuery(QueryState& q);
  void CompleteNow(QueryState& q);
  void AppendLog(const QueryState& q);
  void MaybeFlushLog();

  SimMachine* machine_;
  IoScheduler* ssd_;
  IoScheduler* hdd_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  IndexServeConfig config_;
  // std::log of the lognormal medians, taken once: config_ is fixed at
  // construction.
  const double log_chunk_cpu_median_;
  const double log_rank_cpu_median_;
  Rng rng_;
  uint64_t seed_;
  JobId job_;
  Stats stats_;
  int inflight_ = 0;
  int64_t inflight_at_reset_ = 0;
  int64_t chunks_started_ = 0;  // cumulative, for the hedge budget
  bool crashed_ = false;
  // A QueryState& stays valid while the pool grows, so a done callback may
  // re-enter SubmitQuery.
  SlotPool<QueryState> queries_;
  uint64_t next_serial_ = 0;

  int64_t log_buffered_bytes_ = 0;   // accumulated, not yet in a flush
  int64_t log_inflight_bytes_ = 0;   // handed to the HDD, not yet durable
  std::deque<SlotRef> log_waiters_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_INDEXSERVE_INDEX_SERVER_H_
