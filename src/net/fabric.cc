#include "src/net/fabric.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace perfiso {

Status FabricConfig::Validate() const {
  if (link_rate_bps <= 0) {
    return InvalidArgumentError("link_rate_bps must be positive");
  }
  if (uplink_oversubscription < 1.0) {
    return InvalidArgumentError("uplink_oversubscription must be >= 1");
  }
  if (machines_per_rack <= 0) {
    return InvalidArgumentError("machines_per_rack must be positive");
  }
  if (base_latency <= 0) {
    return InvalidArgumentError(
        "base_latency must be positive: it is the fabric's one-way "
        "propagation plus switching delay, and no physical hop is free");
  }
  if (chunk_bytes <= 0) {
    return InvalidArgumentError("chunk_bytes must be positive");
  }
  if (request_bytes <= 0 || leaf_response_bytes <= 0 || final_response_bytes <= 0) {
    return InvalidArgumentError("RPC payload sizes must be positive");
  }
  return OkStatus();
}

Fabric::Fabric(Simulator* sim, const FabricConfig& config) : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
  assert(config_.Validate().ok());
}

int Fabric::AttachMachine(const std::string& name) {
  const int endpoint = static_cast<int>(endpoints_.size());
  auto ep = std::make_unique<Endpoint>();
  ep->rack = endpoint / config_.machines_per_rack;
  ep->dev = std::make_unique<NetDev>(sim_, this, config_.link_rate_bps, config_.chunk_bytes,
                                     name, config_.tx_priority);
  EnsureRack(ep->rack);
  endpoints_.push_back(std::move(ep));
  return endpoint;
}

void Fabric::EnsureRack(int rack) {
  while (static_cast<int>(racks_.size()) <= rack) {
    const double uplink_rate = config_.link_rate_bps *
                               static_cast<double>(config_.machines_per_rack) /
                               config_.uplink_oversubscription;
    const std::string prefix = "rack" + std::to_string(racks_.size());
    auto r = std::make_unique<Rack>();
    r->up = std::make_unique<Link>(sim_, this, Link::Role::kRackUp, uplink_rate,
                                   config_.chunk_bytes, Link::Discipline::kFifo, prefix + "-up");
    r->down = std::make_unique<Link>(sim_, this, Link::Role::kRackDown, uplink_rate,
                                     config_.chunk_bytes, Link::Discipline::kFifo,
                                     prefix + "-down");
    racks_.push_back(std::move(r));
  }
}

void Fabric::Send(int src, int dst, int64_t bytes, NetClass net_class,
                  Flow::DeliveredFn done, uint64_t trace_ctx) {
  assert(src >= 0 && src < num_endpoints());
  assert(dst >= 0 && dst < num_endpoints());
  const uint32_t id = flows_.Acquire();
  Flow* flow = &flows_[id];
  flow->id = id;
  flow->dst = dst;
  flow->bytes = std::max<int64_t>(bytes, 1);
  flow->net_class = net_class;
  flow->submit_time = sim_->Now();
  flow->on_delivered = std::move(done);
  flow->trace_ctx = trace_ctx;
  ++flows_in_flight_;

  Endpoint& from = *endpoints_[static_cast<size_t>(src)];
  const auto cls = static_cast<size_t>(net_class);
  ++from.stats.flows_sent[cls];
  from.stats.bytes_sent[cls] += flow->bytes;

  if (src == dst) {
    // Loopback: never leaves the machine, no serialization or propagation.
    sim_->ScheduleAfter(0, [this, flow] { Deliver(flow); });
    return;
  }
  const Endpoint& to = *endpoints_[static_cast<size_t>(dst)];
  flow->hops = 0;
  flow->hop = 0;
  flow->route[flow->hops++] = &from.dev->tx();
  if (from.rack != to.rack) {
    flow->route[flow->hops++] = racks_[static_cast<size_t>(from.rack)]->up.get();
    flow->route[flow->hops++] = racks_[static_cast<size_t>(to.rack)]->down.get();
  }
  flow->route[flow->hops++] = &to.dev->rx();
  flow->route[0]->Enqueue(flow);
}

void Fabric::HopDone(Flow* flow) {
  const size_t next = ++flow->hop;
  if (next == flow->hops) {
    Deliver(flow);
  } else if (next + 1 < flow->hops) {
    flow->route[next]->Enqueue(flow);
  } else {
    // Last switch hop done (TX intra-rack, where the ToR forwards at line
    // rate; the downlink cross-rack): pay propagation, then serialize into
    // the destination NIC (the incast point).
    sim_->ScheduleAfter(config_.base_latency, [this, flow] {
      Link* rx = flow->route[flow->hop];
      if (tracer_ != nullptr && flow->trace_ctx != 0) {
        tracer_->Span(flow->trace_ctx, "net.propagate", SpanCategory::kNetTransit, rx->track_,
                      sim_->Now() - config_.base_latency, sim_->Now());
      }
      rx->Enqueue(flow);
    });
  }
}

void Fabric::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  const int pid = tracer->RegisterProcess("fabric");
  for (auto& ep : endpoints_) {
    ep->dev->tx().EnableTracing(tracer, pid);
    ep->dev->rx().EnableTracing(tracer, pid);
  }
  for (auto& rack : racks_) {
    rack->up->EnableTracing(tracer, pid);
    rack->down->EnableTracing(tracer, pid);
  }
}

void Fabric::Deliver(Flow* flow) {
  const SimTime now = sim_->Now();
  auto& dst_stats = endpoints_[static_cast<size_t>(flow->dst)]->stats;
  const auto cls = static_cast<size_t>(flow->net_class);
  ++dst_stats.flows_delivered[cls];
  dst_stats.bytes_received[cls] += flow->bytes;
  flow_latency_ms_[cls].Add(ToMillis(now - flow->submit_time));
  --flows_in_flight_;
  Flow::DeliveredFn done = std::move(flow->on_delivered);  // leaves on_delivered empty
  flows_.Release(flow->id);
  if (done) {
    done(now);
  }
}

void Fabric::ResetStats() {
  for (auto& ep : endpoints_) {
    ep->stats = EndpointStats{};
    ep->dev->tx().ResetStats();
    ep->dev->rx().ResetStats();
  }
  for (auto& rack : racks_) {
    rack->up->ResetStats();
    rack->down->ResetStats();
  }
  for (auto& rec : flow_latency_ms_) {
    rec.Clear();
  }
}

}  // namespace perfiso
