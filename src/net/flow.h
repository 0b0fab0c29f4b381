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

#include <cstdint>
#include <functional>

#include "src/util/sim_time.h"

namespace perfiso {

// Which service class a flow belongs to. Mirrors TenantClass, but the network
// only distinguishes the two classes a NIC can mark (there is no "OS" band).
enum class NetClass { kPrimary = 0, kSecondary = 1 };

inline constexpr int kNumNetClasses = 2;
const char* NetClassName(NetClass net_class);

// One message in flight. Owned by the Fabric; links see it by pointer while
// it sits in their queues.
struct Flow {
  using DeliveredFn = std::function<void(SimTime)>;

  uint64_t id = 0;
  int src = -1;  // fabric endpoint ids
  int dst = -1;
  int64_t bytes = 0;
  NetClass net_class = NetClass::kPrimary;
  SimTime submit_time = 0;
  DeliveredFn on_delivered;
  // Query trace this flow belongs to (0 = untraced): each hop becomes a
  // serialization/transit span on the corresponding fabric track.
  uint64_t trace_ctx = 0;
  SimTime hop_enter = 0;  // when the flow entered its current hop

  // Per-hop serialization state, reset by each link when the flow enters it.
  int64_t remaining_on_link = 0;
  uint64_t arrival_seq = 0;  // FIFO order within a link
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_FLOW_H_
