// Flow-level network modeling primitives shared by NetDev and Fabric.
//
// A Flow is one message in flight (an RPC request/response or a bulk block):
// it serializes hop by hop through the links on its path — source NIC TX,
// optionally the ToR uplink pair, then the destination NIC RX — and fires a
// completion callback when the last byte arrives. Traffic is classed like CPU
// time (§3.2: secondary outbound traffic is "throttled and marked
// low-priority"): primary flows preempt secondary flows in NIC TX queues, and
// secondary flows must drain the machine's egress token bucket.
#ifndef PERFISO_SRC_NET_FLOW_H_
#define PERFISO_SRC_NET_FLOW_H_

#include <array>
#include <cstdint>

#include "src/util/inline_fn.h"
#include "src/util/sim_time.h"

namespace perfiso {

// Which service class a flow belongs to. Mirrors TenantClass, but the network
// only distinguishes the two classes a NIC can mark (there is no "OS" band).
enum class NetClass { kPrimary = 0, kSecondary = 1 };

inline constexpr int kNumNetClasses = 2;
const char* NetClassName(NetClass net_class);

class Link;

// One message in flight. The Fabric owns the record from Send to delivery;
// links see it by pointer while it sits in their queues.
struct Flow {
  using DeliveredFn = InlineFn<void(SimTime)>;

  uint32_t id = 0;  // the record's slot in the Fabric's pool
  int dst = -1;  // fabric endpoint id
  int64_t bytes = 0;
  NetClass net_class = NetClass::kPrimary;
  SimTime submit_time = 0;
  DeliveredFn on_delivered;
  // Query trace this flow belongs to (0 = untraced): each hop becomes a
  // serialization/transit span on that link's track.
  uint64_t trace_ctx = 0;

  // The route, fixed at Send: source NIC TX, then the source rack's uplink
  // and the destination rack's downlink when the flow changes racks, then
  // destination NIC RX. `hop` indexes the link the flow is on.
  std::array<Link*, 4> route{};
  size_t hops = 0;
  size_t hop = 0;

  // Per-hop serialization state, reset by each link when the flow enters it.
  SimTime hop_enter = 0;
  int64_t remaining_on_link = 0;
  uint64_t arrival_seq = 0;  // FIFO order within a link
  // The flow behind this one in its link queue; a flow sits in at most one.
  Flow* next = nullptr;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_FLOW_H_
