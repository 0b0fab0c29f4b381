#include "src/fault/fault_plan.h"

#include <limits>

#include "src/util/rng.h"

namespace perfiso {

Status FaultPlan::Validate() const { return Validate(/*num_nodes=*/0); }

Status FaultPlan::Validate(int num_nodes) const {
  if (!enabled) {
    return OkStatus();
  }
  for (const FaultEvent& event : events) {
    if (event.node < 0) {
      return InvalidArgumentError("fault event node must be >= 0");
    }
    if (num_nodes > 0 && event.node >= num_nodes) {
      return InvalidArgumentError("fault event node " + std::to_string(event.node) +
                                  " outside topology of " + std::to_string(num_nodes) +
                                  " index nodes");
    }
    // Every range check below fails on NaN.
    if (!(event.at_sec >= 0)) {
      return InvalidArgumentError("fault event time must be >= 0");
    }
    if (!(event.duration_sec > 0)) {
      return InvalidArgumentError("fault event duration must be positive");
    }
    // The injector converts both ends of the window to int64 nanoseconds.
    if (!(event.at_sec + event.duration_sec <= 1e9)) {
      return InvalidArgumentError("fault event must end within 1e9 s");
    }
    switch (event.kind) {
      case FaultKind::kNodeCrash:
        break;
      case FaultKind::kDiskDegrade:
        if (!(event.severity >= 1 && event.severity <= kMaxDiskDegradeSeverity)) {
          return InvalidArgumentError("disk-degrade severity is a latency multiplier in [1, 1e6]");
        }
        break;
      case FaultKind::kLinkDegrade:
        if (!(event.severity > 0 && event.severity <= 1)) {
          return InvalidArgumentError("link-degrade severity is a rate fraction in (0, 1]");
        }
        break;
      case FaultKind::kCpuStraggler:
        if (!(event.severity >= 1 && event.severity <= std::numeric_limits<int>::max())) {
          return InvalidArgumentError("straggler severity is an int thread count >= 1");
        }
        break;
    }
  }
  return OkStatus();
}

template <class V>
void FaultPlan::Fields(V& v) {
  v.Flag("fault.enabled", enabled);
  if (!enabled) {
    return;  // contractual inertness: a disabled plan leaves no trace
  }
  v.Field("fault.seed", seed);
  v.List("fault.events", events, [](auto& field, FaultEvent& event) {
    field(event.kind);
    field(event.node);
    field(event.at_sec);
    field(event.duration_sec);
    field(event.severity);
  });
}
template void FaultPlan::Fields(ConfigReader&);
template void FaultPlan::Fields(ConfigWriter&);

void FaultPlan::AppendToConfigMap(ConfigMap* map) const { WriteFields(*this, map); }

StatusOr<FaultPlan> FaultPlan::FromConfigMap(const ConfigMap& map) {
  auto plan = ReadFields<FaultPlan>(map);
  PERFISO_RETURN_IF_ERROR(plan.status());
  PERFISO_RETURN_IF_ERROR(plan->Validate());
  return plan;
}

FaultPlan FaultPlan::Sample(uint64_t seed, int num_nodes, double horizon_sec) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  Rng rng(seed ^ 0xfa017ec7ed5eedULL);
  const int count = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < count; ++i) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(rng.UniformInt(0, 3));
    event.node = num_nodes > 1 ? static_cast<int>(rng.UniformInt(0, num_nodes - 1)) : 0;
    // Leave room for a recovery inside the horizon so restarts get exercised.
    event.at_sec = rng.Uniform(0, horizon_sec * 0.7);
    event.duration_sec = rng.Uniform(horizon_sec * 0.05, horizon_sec * 0.3);
    switch (event.kind) {
      case FaultKind::kNodeCrash:
        event.severity = 1;
        break;
      case FaultKind::kDiskDegrade:
        event.severity = rng.Uniform(2, 20);
        break;
      case FaultKind::kLinkDegrade:
        event.severity = rng.Uniform(0.05, 0.5);
        break;
      case FaultKind::kCpuStraggler:
        event.severity = static_cast<double>(rng.UniformInt(4, 32));
        break;
    }
    plan.events.push_back(event);
  }
  return plan;
}

}  // namespace perfiso
