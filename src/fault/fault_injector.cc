#include "src/fault/fault_injector.h"

#include <algorithm>
#include <cassert>

namespace perfiso {

FaultInjector::FaultInjector(Simulator* sim, const FaultPlan& plan, IndexNodeRig* rig)
    : sim_(sim), plan_(plan), rig_(rig), rng_(plan.seed) {
  assert(rig_ != nullptr);
}

FaultInjector::FaultInjector(Simulator* sim, const FaultPlan& plan, Cluster* cluster)
    : sim_(sim), plan_(plan), cluster_(cluster), rng_(plan.seed) {
  assert(cluster_ != nullptr);
}

FaultInjector::~FaultInjector() {
  // Owned-handle contract: an injector torn down mid-plan takes every armed
  // event with it — no callback capturing `this` may outlive us.
  for (EventHandle& handle : handles_) {
    sim_->CancelOwned(handle);
  }
}

int FaultInjector::NumNodes() const { return cluster_ != nullptr ? cluster_->NumIndexNodes() : 1; }

IndexNodeRig& FaultInjector::Node(int index) const {
  return cluster_ != nullptr ? cluster_->index_node(index) : *rig_;
}

void FaultInjector::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(tracer->RegisterProcess("faults"), "events");
}

void FaultInjector::Arm() {
  if (!plan_.enabled) {
    return;  // contractual inertness: nothing scheduled, nothing drawn
  }
  assert(plan_.Validate(NumNodes()).ok());
  handles_.assign(plan_.events.size() * 2, EventHandle{});
  straggler_threads_.assign(plan_.events.size(), {});
  const SimTime now = sim_->Now();
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    const SimTime inject_at =
        std::max(now, static_cast<SimTime>(event.at_sec * static_cast<double>(kSecond)));
    const SimTime recover_at =
        inject_at + static_cast<SimDuration>(event.duration_sec * static_cast<double>(kSecond));
    handles_[2 * i] = sim_->Schedule(inject_at, [this, i] {
      handles_[2 * i] = EventHandle();
      Inject(i);
    });
    handles_[2 * i + 1] = sim_->Schedule(recover_at, [this, i] {
      handles_[2 * i + 1] = EventHandle();
      Recover(i);
    });
  }
}

void FaultInjector::Inject(size_t event_index) {
  const FaultEvent& event = plan_.events[event_index];
  const SimTime now = sim_->Now();
  switch (event.kind) {
    case FaultKind::kNodeCrash:
      Node(event.node).Crash();
      if (tracer_ != nullptr) {
        tracer_->Instant("fault.crash", track_, now);
      }
      break;
    case FaultKind::kDiskDegrade: {
      IndexNodeRig& node = Node(event.node);
      node.ssd_volume().SetLatencyMultiplier(event.severity);
      node.hdd_volume().SetLatencyMultiplier(event.severity);
      if (tracer_ != nullptr) {
        tracer_->Instant("fault.disk", track_, now);
      }
      break;
    }
    case FaultKind::kLinkDegrade: {
      if (cluster_ == nullptr) {
        // Single-box rigs have no fabric; the fault has nothing to act on.
        ++stats_.skipped;
        return;
      }
      NetDev& netdev = cluster_->fabric().netdev(event.node);
      netdev.tx().SetRateMultiplier(event.severity);
      netdev.rx().SetRateMultiplier(event.severity);
      if (tracer_ != nullptr) {
        tracer_->Instant("fault.link", track_, now);
      }
      break;
    }
    case FaultKind::kCpuStraggler: {
      // Runaway OS-class threads: unmanaged by PerfIso (like kernel work), so
      // they steal cores even under blind isolation — a realistic straggler.
      IndexNodeRig& node = Node(event.node);
      const int threads = static_cast<int>(event.severity);
      auto& spawned = straggler_threads_[event_index];
      spawned.reserve(static_cast<size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        spawned.push_back(node.machine().SpawnLoopThread(TenantClass::kOs, JobId{}));
      }
      if (tracer_ != nullptr) {
        tracer_->Instant("fault.straggler", track_, now);
      }
      break;
    }
  }
  ++stats_.injected;
}

void FaultInjector::Recover(size_t event_index) {
  const FaultEvent& event = plan_.events[event_index];
  switch (event.kind) {
    case FaultKind::kNodeCrash:
      Node(event.node).Restart();
      break;
    case FaultKind::kDiskDegrade: {
      // Overlapping windows on one node are allowed; the last recovery wins
      // (multipliers are absolute, not stacked).
      IndexNodeRig& node = Node(event.node);
      node.ssd_volume().SetLatencyMultiplier(1.0);
      node.hdd_volume().SetLatencyMultiplier(1.0);
      break;
    }
    case FaultKind::kLinkDegrade: {
      if (cluster_ == nullptr) {
        return;  // the matching Inject was skipped
      }
      NetDev& netdev = cluster_->fabric().netdev(event.node);
      netdev.tx().SetRateMultiplier(1.0);
      netdev.rx().SetRateMultiplier(1.0);
      break;
    }
    case FaultKind::kCpuStraggler: {
      IndexNodeRig& node = Node(event.node);
      for (ThreadId tid : straggler_threads_[event_index]) {
        if (node.machine().ThreadLive(tid)) {
          node.machine().KillThread(tid);
        }
      }
      straggler_threads_[event_index].clear();
      break;
    }
  }
  ++stats_.recovered;
  if (tracer_ != nullptr) {
    tracer_->Instant("fault.recover", track_, sim_->Now());
  }
}

}  // namespace perfiso
