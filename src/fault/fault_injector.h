// FaultInjector: turns a declarative FaultPlan into scheduled sim-time
// inject/recover actions against a single IndexNodeRig or a whole Cluster.
//
// Ownership & determinism: the injector owns every EventHandle it arms (all
// are cancelled on destruction, so tearing a rig down mid-plan leaves no
// dangling callbacks in the simulator queue), and holds its own Rng stream
// seeded from the plan — it never draws from the workload's or any machine's
// stream, so enabling faults perturbs only what the faults themselves touch.
// A disabled plan arms nothing: Arm() is a no-op and the run is bit-identical
// to one without an injector.
#ifndef PERFISO_SRC_FAULT_FAULT_INJECTOR_H_
#define PERFISO_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/fault/fault_plan.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {

class FaultInjector {
 public:
  // Single-box target: every event's `node` must be 0; link faults have no
  // fabric to act on and are skipped (counted in stats().skipped).
  FaultInjector(Simulator* sim, const FaultPlan& plan, IndexNodeRig* rig);
  // Cluster target: events address index nodes [0, NumIndexNodes()).
  FaultInjector(Simulator* sim, const FaultPlan& plan, Cluster* cluster);

  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules one inject and one recover event per plan entry (absolute sim
  // times; events already in the past fire immediately on the next step).
  // No-op when the plan is disabled.
  void Arm();

  // Registers a "faults" process with one track; every inject/recover then
  // emits an instant there ("fault.crash", "fault.disk", "fault.link",
  // "fault.straggler", "fault.recover").
  void EnableTracing(Tracer* tracer);

  struct Stats {
    int64_t injected = 0;
    int64_t recovered = 0;
    int64_t skipped = 0;  // e.g. link faults on a single-box rig
  };
  const Stats& stats() const { return stats_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  int NumNodes() const;
  IndexNodeRig& Node(int index) const;
  void Inject(size_t event_index);
  void Recover(size_t event_index);

  Simulator* sim_;
  FaultPlan plan_;
  IndexNodeRig* rig_ = nullptr;   // single-box target (exclusive with cluster_)
  Cluster* cluster_ = nullptr;
  // The injector's private stream (forked from the plan seed); kept separate
  // from every workload/machine stream by contract.
  Rng rng_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  std::vector<EventHandle> handles_;  // 2 per event: [2i]=inject, [2i+1]=recover
  // Straggler threads spawned per event, killed at its recovery.
  std::vector<std::vector<ThreadId>> straggler_threads_;
  Stats stats_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_FAULT_FAULT_INJECTOR_H_
