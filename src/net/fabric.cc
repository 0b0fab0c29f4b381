#include "src/net/fabric.h"

#include <cassert>
#include <utility>

namespace perfiso {

Status FabricConfig::Validate() const {
  if (link_rate_bps <= 0) {
    return InvalidArgumentError("net.link_rate_bps must be positive");
  }
  if (uplink_oversubscription < 1.0) {
    return InvalidArgumentError("net.uplink_oversubscription must be >= 1");
  }
  if (machines_per_rack <= 0) {
    return InvalidArgumentError("net.machines_per_rack must be positive");
  }
  if (base_latency <= 0) {
    return InvalidArgumentError(
        "net.base_latency_us must be positive: it is the fabric's one-way "
        "propagation plus switching delay, and no physical hop is free");
  }
  if (chunk_bytes <= 0) {
    return InvalidArgumentError("net.chunk_bytes must be positive");
  }
  if (request_bytes <= 0 || leaf_response_bytes <= 0 || final_response_bytes <= 0) {
    return InvalidArgumentError("net RPC payload sizes must be positive");
  }
  return OkStatus();
}

Fabric::Fabric(Simulator* sim, const FabricConfig& config) : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
  assert(config_.link_rate_bps > 0);
  assert(config_.uplink_oversubscription >= 1.0);
  assert(config_.machines_per_rack > 0);
  assert(config_.chunk_bytes > 0);
}

int Fabric::AttachMachine(const std::string& name) {
  const int endpoint = static_cast<int>(endpoints_.size());
  auto ep = std::make_unique<Endpoint>();
  ep->name = name;
  ep->rack = endpoint / config_.machines_per_rack;
  ep->dev = std::make_unique<NetDev>(sim_, config_.link_rate_bps, config_.chunk_bytes, name,
                                     config_.tx_priority);
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
    r->up = std::make_unique<Link>(sim_, uplink_rate, config_.chunk_bytes,
                                   Link::Discipline::kFifo, prefix + "-up");
    r->down = std::make_unique<Link>(sim_, uplink_rate, config_.chunk_bytes,
                                     Link::Discipline::kFifo, prefix + "-down");
    racks_.push_back(std::move(r));
  }
}

void Fabric::SetEgressBucketProvider(int endpoint, Link::EgressBucketFn provider) {
  endpoints_[static_cast<size_t>(endpoint)]->dev->SetEgressBucketProvider(std::move(provider));
}

void Fabric::Send(int src, int dst, int64_t bytes, NetClass net_class,
                  Flow::DeliveredFn done, uint64_t trace_ctx) {
  assert(src >= 0 && src < num_endpoints());
  assert(dst >= 0 && dst < num_endpoints());
  auto flow = std::make_shared<Flow>();
  flow->id = next_flow_id_++;
  flow->src = src;
  flow->dst = dst;
  flow->bytes = std::max<int64_t>(bytes, 1);
  flow->net_class = net_class;
  flow->submit_time = sim_->Now();
  flow->on_delivered = std::move(done);
  flow->trace_ctx = trace_ctx;
  ++flows_in_flight_;

  auto& src_stats = endpoints_[static_cast<size_t>(src)]->stats;
  const auto cls = static_cast<size_t>(net_class);
  ++src_stats.flows_sent[cls];
  src_stats.bytes_sent[cls] += flow->bytes;

  if (src == dst) {
    // Loopback: never leaves the machine, no serialization or propagation.
    sim_->ScheduleAfter(0, [this, flow] { Deliver(flow, sim_->Now()); });
    return;
  }
  RunHop(flow, 0);
}

void Fabric::RunHop(const std::shared_ptr<Flow>& flow, int hop) {
  const Endpoint& src = *endpoints_[static_cast<size_t>(flow->src)];
  const Endpoint& dst = *endpoints_[static_cast<size_t>(flow->dst)];
  const bool cross_rack = src.rack != dst.rack;

  // Path: [0] src TX, then (cross-rack only) [1] src rack uplink and [2] dst
  // rack downlink, then propagation, then [3] dst RX, then delivery.
  Link* link = nullptr;
  switch (hop) {
    case 0:
      link = &src.dev->tx();
      break;
    case 1:
      if (!cross_rack) {
        // Intra-rack: the ToR forwards at line rate; skip to propagation.
        sim_->ScheduleAfter(config_.base_latency, [this, flow] { RunHop(flow, 3); });
        return;
      }
      link = racks_[static_cast<size_t>(src.rack)]->up.get();
      break;
    case 2:
      link = racks_[static_cast<size_t>(dst.rack)]->down.get();
      break;
    case 3:
      if (tracer_ != nullptr && flow->trace_ctx != 0 && config_.base_latency > 0) {
        // RunHop(3) fires exactly base_latency after the last switch hop.
        tracer_->Span(flow->trace_ctx, "net.propagate", SpanCategory::kNetTransit,
                      dst.rx_track, sim_->Now() - config_.base_latency, sim_->Now());
      }
      link = &dst.dev->rx();
      break;
    default:
      assert(false);
      return;
  }
  flow->hop_enter = sim_->Now();
  const int next = hop + 1;
  link->Enqueue(flow.get(), [this, flow, hop, next](Flow*, SimTime now) {
    if (tracer_ != nullptr && flow->trace_ctx != 0 && now > flow->hop_enter) {
      EmitHopSpan(*flow, hop, now);
    }
    switch (next) {
      case 1:
      case 2:
        RunHop(flow, next);
        return;
      case 3:
        // Last switch hop done: pay propagation, then serialize into the
        // destination NIC (the incast point).
        sim_->ScheduleAfter(config_.base_latency, [this, flow] { RunHop(flow, 3); });
        return;
      default:
        Deliver(flow, now);
        return;
    }
  });
}

void Fabric::EmitHopSpan(const Flow& flow, int hop, SimTime now) {
  const Endpoint& src = *endpoints_[static_cast<size_t>(flow.src)];
  const Endpoint& dst = *endpoints_[static_cast<size_t>(flow.dst)];
  switch (hop) {
    case 0:
      tracer_->Span(flow.trace_ctx, "net.tx", SpanCategory::kSerialization,
                    src.tx_track, flow.hop_enter, now);
      break;
    case 1:
      tracer_->Span(flow.trace_ctx, "net.uplink", SpanCategory::kNetTransit,
                    racks_[static_cast<size_t>(src.rack)]->up_track, flow.hop_enter, now);
      break;
    case 2:
      tracer_->Span(flow.trace_ctx, "net.downlink", SpanCategory::kNetTransit,
                    racks_[static_cast<size_t>(dst.rack)]->down_track, flow.hop_enter, now);
      break;
    case 3:
      tracer_->Span(flow.trace_ctx, "net.rx", SpanCategory::kSerialization,
                    dst.rx_track, flow.hop_enter, now);
      break;
    default:
      break;
  }
}

void Fabric::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  const int pid = tracer->RegisterProcess("fabric");
  for (auto& ep : endpoints_) {
    ep->tx_track = tracer->RegisterTrack(pid, ep->name + "-tx");
    ep->rx_track = tracer->RegisterTrack(pid, ep->name + "-rx");
  }
  for (size_t r = 0; r < racks_.size(); ++r) {
    const std::string prefix = "rack" + std::to_string(r);
    racks_[r]->up_track = tracer->RegisterTrack(pid, prefix + "-up");
    racks_[r]->down_track = tracer->RegisterTrack(pid, prefix + "-down");
  }
}

void Fabric::Deliver(const std::shared_ptr<Flow>& flow, SimTime now) {
  auto& dst_stats = endpoints_[static_cast<size_t>(flow->dst)]->stats;
  const auto cls = static_cast<size_t>(flow->net_class);
  ++dst_stats.flows_delivered[cls];
  dst_stats.bytes_received[cls] += flow->bytes;
  flow_latency_ms_[cls].Add(ToMillis(now - flow->submit_time));
  --flows_in_flight_;
  if (flow->on_delivered) {
    // Move the callback out so its captures die with this scope, not with
    // the last shared_ptr reference to the flow.
    Flow::DeliveredFn done = std::move(flow->on_delivered);
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
