#include "src/net/netdev.h"

#include <algorithm>
#include <cassert>

#include "src/net/fabric.h"

namespace perfiso {

const char* NetClassName(NetClass net_class) {
  switch (net_class) {
    case NetClass::kPrimary:
      return "primary";
    case NetClass::kSecondary:
      return "secondary";
  }
  return "?";
}

Link::Link(Simulator* sim, Fabric* fabric, Role role, double rate_bps, int64_t chunk_bytes,
           Discipline discipline, std::string name)
    : sim_(sim),
      fabric_(fabric),
      role_(role),
      rate_bps_(rate_bps),
      chunk_bytes_(chunk_bytes),
      discipline_(discipline),
      name_(std::move(name)) {
  assert(rate_bps_ > 0);
  assert(chunk_bytes_ > 0);
}

void Link::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, name_);
}

void Link::Enqueue(Flow* flow) {
  assert(flow != nullptr);
  assert(flow->bytes > 0);
  flow->hop_enter = sim_->Now();
  flow->remaining_on_link = flow->bytes;
  flow->arrival_seq = next_arrival_seq_++;
  queued_bytes_ += flow->bytes;
  stats_.max_queued_bytes = std::max(stats_.max_queued_bytes, queued_bytes_);
  const auto qi = static_cast<size_t>(flow->net_class);
  queues_[qi].Push(flow);
  Pump();
}

int Link::PickQueue() const {
  const bool p = !queues_[0].empty();
  const bool s = !queues_[1].empty();
  if (!p && !s) {
    return -1;
  }
  if (p && s && discipline_ == Discipline::kFifo) {
    // Arrival order across classes; a partially-serialized flow keeps its
    // original seq and therefore stays in front.
    return queues_[0].head->arrival_seq < queues_[1].head->arrival_seq ? 0 : 1;
  }
  return p ? 0 : 1;  // strict priority (or only one queue occupied)
}

void Link::Pump() {
  if (busy_) {
    return;
  }
  const int queue = PickQueue();
  if (queue < 0) {
    return;
  }
  Flow* flow = queues_[static_cast<size_t>(queue)].head;
  int64_t chunk = std::min(chunk_bytes_, flow->remaining_on_link);
  const SimTime now = sim_->Now();
  // TX links shape secondary chunks through the machine's egress bucket.
  // Tokens may become available before the wake fires (PerfIso can raise the
  // cap), so re-pump on every enqueue as well.
  if (queue == 1 && egress_bucket_ != nullptr) {
    if (std::optional<TokenBucket>& bucket = *egress_bucket_) {
      // A bucket whose burst is below the chunk size could never satisfy
      // NextAvailable — serve smaller chunks rather than livelock.
      chunk = std::max<int64_t>(1, std::min(chunk, static_cast<int64_t>(bucket->burst())));
      const SimTime available = bucket->NextAvailable(static_cast<double>(chunk), now);
      if (available > now) {
        // Arm the wake, or pull an armed one earlier when PerfIso raised the
        // cap (or the head shrank) and tokens are due sooner. The callback
        // drops its own handle first: it has just fired, and a lingering
        // stale handle would alias whatever recycles the slot.
        sim_->ScheduleOrTighten(retry_event_, available, [this] {
          retry_event_ = EventHandle();
          Pump();
        });
        return;
      }
      bucket->ForceConsume(static_cast<double>(chunk), now);
    }
  }
  // A chunk is going out, and its completion re-pumps; a pending bucket wake
  // is stale, so remove it from the queue eagerly.
  sim_->CancelOwned(retry_event_);
  busy_ = true;
  const auto tx_time = static_cast<SimDuration>(static_cast<double>(chunk) / EffectiveRate() *
                                                static_cast<double>(kSecond));
  sim_->ScheduleAfter(tx_time, [this, queue, chunk] { OnChunkDone(queue, chunk); });
}

void Link::OnChunkDone(int queue, int64_t chunk) {
  busy_ = false;
  FlowQueue& q = queues_[static_cast<size_t>(queue)];
  Flow* flow = q.head;
  flow->remaining_on_link -= chunk;
  queued_bytes_ -= chunk;
  ++stats_.chunks;
  stats_.bytes_serialized[queue] += chunk;
  stats_.busy_ns += static_cast<SimDuration>(static_cast<double>(chunk) / EffectiveRate() *
                                             static_cast<double>(kSecond));
  if (flow->remaining_on_link == 0) {
    ++stats_.flows_completed[queue];
    q.Pop();
    Pump();
    const SimTime now = sim_->Now();
    if (tracer_ != nullptr && flow->trace_ctx != 0 && now > flow->hop_enter) {
      EmitSpan(flow->trace_ctx, flow->hop_enter, now);
    }
    fabric_->HopDone(flow);
    return;
  }
  Pump();
}

void Link::EmitSpan(uint64_t ctx, SimTime from, SimTime to) {
  switch (role_) {
    case Role::kNicTx:
      tracer_->Span(ctx, "net.tx", SpanCategory::kSerialization, track_, from, to);
      return;
    case Role::kRackUp:
      tracer_->Span(ctx, "net.uplink", SpanCategory::kNetTransit, track_, from, to);
      return;
    case Role::kRackDown:
      tracer_->Span(ctx, "net.downlink", SpanCategory::kNetTransit, track_, from, to);
      return;
    case Role::kNicRx:
      tracer_->Span(ctx, "net.rx", SpanCategory::kSerialization, track_, from, to);
      return;
  }
}

NetDev::NetDev(Simulator* sim, Fabric* fabric, double link_rate_bps, int64_t chunk_bytes,
               const std::string& name, bool priority_tx)
    : tx_(sim, fabric, Link::Role::kNicTx, link_rate_bps, chunk_bytes,
          priority_tx ? Link::Discipline::kStrictPriority : Link::Discipline::kFifo,
          name + "-tx"),
      rx_(sim, fabric, Link::Role::kNicRx, link_rate_bps, chunk_bytes, Link::Discipline::kFifo,
          name + "-rx") {}

}  // namespace perfiso
