// Fabric: the cluster network connecting every machine's NetDev.
//
// Topology is the classic two-tier datacenter fabric: machines attach to a
// top-of-rack switch in groups of `machines_per_rack`; each ToR connects to
// the core over an uplink whose capacity is the rack's aggregate NIC rate
// divided by `uplink_oversubscription` (an oversubscribed fabric, the normal
// cost-saving design). A flow from A to B serializes at A's NIC TX (priority
// queues + egress shaping), crosses the rack uplinks when A and B sit in
// different racks, pays the propagation delay, serializes again at B's NIC RX
// (FIFO — this is where MLA fan-in becomes genuine incast), and then fires
// its completion callback.
#ifndef PERFISO_SRC_NET_FABRIC_H_
#define PERFISO_SRC_NET_FABRIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/flow.h"
#include "src/net/netdev.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/slot_pool.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace perfiso {

// Every tunable of the fabric. The RPC payload sizes ride along so cluster
// code has a single network config.
struct FabricConfig {
  double link_rate_bps = 10e9 / 8;       // 10 GbE per machine NIC, in bytes/s
  double uplink_oversubscription = 4.0;  // rack NIC capacity / ToR uplink capacity
  int machines_per_rack = 16;
  SimDuration base_latency = FromMicros(120);  // one-way propagation + switching
  int64_t chunk_bytes = 64 * 1024;             // serialization/preemption granularity
  bool tx_priority = true;  // false: NIC TX degrades to FIFO (no priority classes)

  // RPC payload sizes used by the cluster layers.
  int64_t request_bytes = 2 * 1024;
  int64_t leaf_response_bytes = 16 * 1024;
  int64_t final_response_bytes = 32 * 1024;

  // Rejects non-physical settings, including a base_latency that is not
  // strictly positive (no real hop propagates or switches for free).
  Status Validate() const;
};

// Owns every flow from Send to delivery, in a pooled record that carries the
// route; each link hands a flow back here when its last chunk leaves.
class Fabric {
 public:
  // `config` must pass Validate().
  Fabric(Simulator* sim, const FabricConfig& config);

  // Attaches one machine; returns its endpoint id (dense, starting at 0).
  // Rack membership is by attach order: ids [k*R, (k+1)*R) share rack k.
  int AttachMachine(const std::string& name);

  // Sends `bytes` from `src` to `dst` and fires `done` when the last byte
  // arrives. src == dst delivers immediately (loopback skips the NIC).
  // `trace_ctx` ties the flow to a query trace (0 = untraced).
  void Send(int src, int dst, int64_t bytes, NetClass net_class, Flow::DeliveredFn done,
            uint64_t trace_ctx = 0);

  // Registers fabric tracks (per-endpoint NIC tx/rx, per-rack uplinks) with
  // the tracer; traced flows then report per-hop serialization/transit spans.
  // Call after all machines are attached.
  void EnableTracing(Tracer* tracer);

  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }
  int num_racks() const { return static_cast<int>(racks_.size()); }
  NetDev& netdev(int endpoint) { return *endpoints_[static_cast<size_t>(endpoint)]->dev; }
  Link& rack_uplink(int rack) { return *racks_[static_cast<size_t>(rack)]->up; }
  Link& rack_downlink(int rack) { return *racks_[static_cast<size_t>(rack)]->down; }

  // --- Stats -----------------------------------------------------------------

  struct EndpointStats {
    int64_t bytes_sent[kNumNetClasses] = {0, 0};
    int64_t bytes_received[kNumNetClasses] = {0, 0};
    int64_t flows_sent[kNumNetClasses] = {0, 0};
    int64_t flows_delivered[kNumNetClasses] = {0, 0};
  };
  const EndpointStats& endpoint_stats(int endpoint) const {
    return endpoints_[static_cast<size_t>(endpoint)]->stats;
  }
  // Flow completion time (submit to last byte delivered), in milliseconds.
  const LatencyRecorder& FlowLatencyMs(NetClass net_class) const {
    return flow_latency_ms_[static_cast<size_t>(net_class)];
  }
  int64_t flows_in_flight() const { return flows_in_flight_; }
  // Flow slots held: equal to flows_in_flight() unless a slot leaked or was
  // freed twice (InvariantChecker asserts it).
  int64_t occupied_slots() const { return flows_.occupied(); }
  void ResetStats();

 private:
  friend class Link;

  struct Endpoint {
    int rack = 0;
    std::unique_ptr<NetDev> dev;
    EndpointStats stats;
  };
  struct Rack {
    std::unique_ptr<Link> up;    // rack -> core
    std::unique_ptr<Link> down;  // core -> rack
  };

  void EnsureRack(int rack);
  // A link finished serializing `flow`: enqueue it on the next link of its
  // route, pay propagation before the destination RX, or deliver it.
  void HopDone(Flow* flow);
  // Records delivery and frees the flow's record, then runs its callback
  // (which may re-enter Send).
  void Deliver(Flow* flow);

  Simulator* sim_;
  FabricConfig config_;
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Rack>> racks_;
  // A Flow* stays valid while the pool grows, so links queue flows by pointer.
  SlotPool<Flow> flows_;
  int64_t flows_in_flight_ = 0;
  LatencyRecorder flow_latency_ms_[kNumNetClasses];
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_FABRIC_H_
