// NetDev: one machine's NIC, modeled as a pair of serializing links.
//
// The TX side is what a host can actually control and is where PerfIso's
// network isolation lives (§3.2): two strict-priority queues (primary
// preempts secondary at chunk granularity, the qdisc analogue of marking
// batch traffic low-priority) and an egress token bucket that secondary
// chunks must drain before they reach the wire — the static egress cap. The
// RX side is plain FIFO serialization at line rate: once traffic is on the
// wire the fabric does not honor host priorities, which is exactly why the
// egress cap is needed end to end (a network bully hurts its *victims'*
// ingress, not its own egress).
#ifndef PERFISO_SRC_NET_NETDEV_H_
#define PERFISO_SRC_NET_NETDEV_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "src/net/flow.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/token_bucket.h"

namespace perfiso {

class Fabric;

// A store-and-forward serializing element: flows queue, the link transmits
// one chunk at a time at `rate_bps`, and a flow whose last chunk leaves goes
// back to the Fabric, which moves it along its route. Chunking is what makes
// priority preemptive in practice — a primary flow waits at most one
// secondary chunk, never a whole bulk block.
class Link {
 public:
  enum class Discipline {
    kStrictPriority,  // NIC TX: primary queue always served first
    kFifo,            // switch ports / NIC RX: arrival order, class-blind
  };
  // Where the link sits on a route; names the span a traced flow reports
  // for its time on the link.
  enum class Role { kNicTx, kRackUp, kRackDown, kNicRx };

  Link(Simulator* sim, Fabric* fabric, Role role, double rate_bps, int64_t chunk_bytes,
       Discipline discipline, std::string name);

  // A Link may die with a token-starved wake still armed (e.g. a fabric torn
  // down mid-run); the wake captures `this`, so it must not outlive us.
  ~Link() { sim_->CancelOwned(retry_event_); }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Installs the secondary shaper (TX links; independent of the discipline —
  // on a FIFO TX link a token-starved secondary head blocks primary egress
  // behind it, which is the point of having priority queues). `bucket` is
  // the machine's cap, empty while uncapped; it is read before every
  // secondary chunk, so PerfIso can install or clear the cap at runtime.
  void SetEgressBucket(std::optional<TokenBucket>* bucket) { egress_bucket_ = bucket; }

  // Registers the link as a track of `process` (named after the link);
  // traced flows then report their time on it as a span there.
  void EnableTracing(Tracer* tracer, int process);

  // Fault injection (link degradation): chunks *started* while the multiplier
  // is in effect serialize at `fraction` of nominal rate (a chunk already on
  // the wire keeps its original duration). 1.0 restores nominal; the healthy
  // path skips the scaling arithmetic so no-fault runs stay bit-identical.
  void SetRateMultiplier(double fraction) { rate_multiplier_ = fraction; }

  struct LinkStats {
    int64_t bytes_serialized[kNumNetClasses] = {0, 0};
    int64_t flows_completed[kNumNetClasses] = {0, 0};
    int64_t chunks = 0;
    // High-water mark of bytes waiting in the queues — the incast gauge.
    int64_t max_queued_bytes = 0;
    SimDuration busy_ns = 0;
  };
  const LinkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LinkStats{}; }

 private:
  friend class Fabric;

  // Queues `flow` for serialization. Once all of `flow->bytes` have left the
  // link, the flow goes back to the Fabric.
  void Enqueue(Flow* flow);
  // Picks the queue to serve next per the discipline; -1 when both are empty.
  int PickQueue() const;
  void Pump();
  void OnChunkDone(int queue, int64_t chunk);
  // Reports a traced flow's time on this link, named by the link's role.
  void EmitSpan(uint64_t ctx, SimTime from, SimTime to);
  // Nominal rate scaled by the fault multiplier (branch-free on 1.0).
  double EffectiveRate() const {
    return rate_multiplier_ == 1.0 ? rate_bps_ : rate_bps_ * rate_multiplier_;
  }

  Simulator* sim_;
  Fabric* fabric_;
  Role role_;
  double rate_bps_;
  double rate_multiplier_ = 1.0;
  int64_t chunk_bytes_;
  Discipline discipline_;
  std::string name_;
  std::optional<TokenBucket>* egress_bucket_ = nullptr;
  // One FIFO per class, linked through Flow::next, so queueing never
  // allocates.
  struct FlowQueue {
    Flow* head = nullptr;
    Flow* tail = nullptr;

    bool empty() const { return head == nullptr; }
    void Push(Flow* flow) {
      flow->next = nullptr;
      (tail == nullptr ? head : tail->next) = flow;
      tail = flow;
    }
    void Pop() {
      head = head->next;
      if (head == nullptr) {
        tail = nullptr;
      }
    }
  };
  std::array<FlowQueue, kNumNetClasses> queues_;
  uint64_t next_arrival_seq_ = 0;
  int64_t queued_bytes_ = 0;
  bool busy_ = false;
  // Pending wake for a token-starved secondary head. If a chunk starts first
  // (priority traffic, or PerfIso raised the cap and a re-pump got through),
  // the stale wake is cancelled instead of firing as a no-op; if tokens
  // become due earlier, it is tightened in place.
  EventHandle retry_event_;
  LinkStats stats_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
};

// The two directions of one machine's NIC. `priority_tx` false degrades the
// TX side to FIFO — the "no priority classes" ablation, where a blocked or
// bulky secondary flow head-of-line-blocks the machine's own primary egress.
class NetDev {
 public:
  NetDev(Simulator* sim, Fabric* fabric, double link_rate_bps, int64_t chunk_bytes,
         const std::string& name, bool priority_tx);

  Link& tx() { return tx_; }
  Link& rx() { return rx_; }
  const Link& tx() const { return tx_; }
  const Link& rx() const { return rx_; }

 private:
  Link tx_;
  Link rx_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_NETDEV_H_
