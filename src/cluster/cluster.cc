#include "src/cluster/cluster.h"

#include <cassert>

namespace perfiso {

Cluster::Cluster(Simulator* sim, const ClusterOptions& options)
    : sim_(sim), options_(options), rng_(options.seed) {
  const ClusterTopology& topo = options_.topology;
  assert(topo.columns > 0 && topo.rows > 0 && topo.tla_machines > 0);
  fabric_ = std::make_unique<Fabric>(sim_, options_.fabric);
  index_nodes_.reserve(static_cast<size_t>(topo.columns * topo.rows));
  for (int row = 0; row < topo.rows; ++row) {
    for (int col = 0; col < topo.columns; ++col) {
      IndexNodeOptions node = options_.node;
      node.seed = rng_.Next();
      auto rig = std::make_unique<IndexNodeRig>(
          sim_, node, "is-r" + std::to_string(row) + "c" + std::to_string(col));
      const int endpoint = fabric_->AttachMachine(rig->machine().name());
      assert(endpoint == static_cast<int>(index_nodes_.size()));
      (void)endpoint;
      // Secondary flows leaving this machine drain its PerfIso egress bucket.
      fabric_->netdev(endpoint).tx().SetEgressBucket(&rig->platform().egress_bucket());
      index_nodes_.push_back(std::move(rig));
    }
  }
  tla_machines_.reserve(static_cast<size_t>(topo.tla_machines));
  for (int i = 0; i < topo.tla_machines; ++i) {
    tla_machines_.push_back(
        std::make_unique<SimMachine>(sim_, options_.node.machine, "tla-" + std::to_string(i)));
    fabric_->AttachMachine(tla_machines_.back()->name());
  }
  next_mla_in_row_.assign(static_cast<size_t>(topo.rows), 0);
}

void Cluster::SubmitQuery(const QueryWork& work, IndexServer::QueryDoneFn done) {
  ++queries_submitted_;
  const uint32_t slot = queries_.Acquire();
  PendingQuery& q = queries_[slot];
  // TLA request processing, then forward to a row (round-robin).
  q = PendingQuery{.work = work, .done = std::move(done),
                   .tla_submit = sim_->Now(), .tla_machine = static_cast<int>(next_tla_),
                   .row = next_row_};
  next_tla_ = (next_tla_ + 1) % tla_machines_.size();
  next_row_ = (next_row_ + 1) % options_.topology.rows;
  if (tracer_ != nullptr && q.work.trace_ctx == 0) {
    // One context for the whole tree: TLA forward, fabric hops, every leaf's
    // stages and I/O, MLA merge, final reply. Leaves adopt it via QueryWork.
    q.work.trace_ctx = tracer_->BeginTrace("tla", q.tla_submit);
  }
  tla_machines_[static_cast<size_t>(q.tla_machine)]->SpawnThread(
      TenantClass::kPrimary, JobId{}, FromMicros(options_.tla_cpu_us),
      [this, slot](SimTime) { RouteAtTla(slot); }, q.work.trace_ctx);
}

void Cluster::RouteAtTla(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  // Pick the MLA within the row (TLA load balancing), skipping nodes the
  // health checks know to be crashed. With nothing crashed the first probe
  // hits the cursor, exactly the pre-fault round-robin.
  const int cols = options_.topology.columns;
  auto& cursor = next_mla_in_row_[static_cast<size_t>(q.row)];
  for (int probe = 0; probe < cols; ++probe) {
    const int candidate =
        q.row * cols +
        static_cast<int>((cursor + static_cast<size_t>(probe)) % static_cast<size_t>(cols));
    if (!NodeCrashed(candidate)) {
      q.mla_node = candidate;
      cursor = (cursor + static_cast<size_t>(probe) + 1) % static_cast<size_t>(cols);
      break;
    }
  }
  if (q.mla_node < 0) {
    // The whole row is down: nothing can serve this query.
    EndQuery(slot);
    return;
  }
  fabric_->Send(tla_endpoint(q.tla_machine), index_endpoint(q.mla_node),
                options_.fabric.request_bytes, NetClass::kPrimary,
                [this, slot](SimTime) { FanOut(slot); }, q.work.trace_ctx);
}

void Cluster::FanOut(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  q.mla_arrival = sim_->Now();
  const int cols = options_.topology.columns;
  q.leaves_left = cols;
  for (int col = 0; col < cols; ++col) {
    const int leaf = q.row * cols + col;
    if (NodeCrashed(leaf)) {
      // Health checks: no request goes to a known-dead leaf (crashed machines
      // get no events). It counts as failed coverage at once.
      ++q.leaves_failed;
      LeafMerged(slot);
    } else if (leaf == q.mla_node) {
      StartLeaf(slot, col);
    } else {
      fabric_->Send(index_endpoint(q.mla_node), index_endpoint(leaf),
                    options_.fabric.request_bytes, NetClass::kPrimary,
                    [this, slot, col](SimTime) { StartLeaf(slot, col); }, q.work.trace_ctx);
    }
  }
}

void Cluster::StartLeaf(uint32_t slot, int col) {
  PendingQuery& q = queries_[slot];
  index_nodes_[static_cast<size_t>(q.row * options_.topology.columns + col)]
      ->server()
      .SubmitQuery(q.work, [this, slot, col](const QueryResult& leaf_result) {
        LeafAnswered(slot, col, leaf_result.dropped);
      });
}

void Cluster::LeafAnswered(uint32_t slot, int col, bool dropped) {
  PendingQuery& q = queries_[slot];
  // A dropped leaf (timeout, admission, or a crash that raced the request)
  // answered nothing: failed coverage. The (error) response still travels
  // back and merges, keeping the event sequence of no-fault runs untouched.
  if (dropped) {
    ++q.leaves_failed;
  }
  const int leaf = q.row * options_.topology.columns + col;
  if (leaf == q.mla_node) {
    Merge(slot);
  } else {
    // Leaf response travels back over the fabric (MLA fan-in: all columns'
    // responses converge on the MLA's RX link — incast).
    fabric_->Send(index_endpoint(leaf), index_endpoint(q.mla_node),
                  options_.fabric.leaf_response_bytes, NetClass::kPrimary,
                  [this, slot](SimTime) { Merge(slot); }, q.work.trace_ctx);
  }
}

void Cluster::Merge(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  // Merge work on the MLA machine for this leaf response.
  IndexNodeRig& mla = *index_nodes_[static_cast<size_t>(q.mla_node)];
  mla.machine().SpawnThread(TenantClass::kPrimary, mla.server().job(),
                            FromMicros(options_.mla_merge_cpu_us),
                            [this, slot](SimTime) { LeafMerged(slot); }, q.work.trace_ctx);
}

void Cluster::LeafMerged(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  if (--q.leaves_left > 0) {
    return;
  }
  // All leaf slots accounted for: finalize on the MLA, reply to the TLA.
  IndexNodeRig& mla = *index_nodes_[static_cast<size_t>(q.mla_node)];
  mla.machine().SpawnThread(TenantClass::kPrimary, mla.server().job(),
                            FromMicros(options_.mla_finalize_cpu_us),
                            [this, slot](SimTime) { Finalized(slot); }, q.work.trace_ctx);
}

void Cluster::Finalized(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  mla_latency_ms_.Add(ToMillis(sim_->Now() - q.mla_arrival));
  fabric_->Send(index_endpoint(q.mla_node), tla_endpoint(q.tla_machine),
                options_.fabric.final_response_bytes, NetClass::kPrimary,
                [this, slot](SimTime) { RepliedAtTla(slot); }, q.work.trace_ctx);
}

void Cluster::RepliedAtTla(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  tla_machines_[static_cast<size_t>(q.tla_machine)]->SpawnThread(
      TenantClass::kPrimary, JobId{}, FromMicros(options_.tla_cpu_us),
      [this, slot](SimTime) { EndQuery(slot); }, q.work.trace_ctx);
}

void Cluster::EndQuery(uint32_t slot) {
  PendingQuery& q = queries_[slot];
  const SimTime now = sim_->Now();
  const int cols = options_.topology.columns;
  // A query that never reached an MLA (its whole row was down) served
  // nothing, and is a failure rather than a degraded answer.
  const bool reached_mla = q.mla_node >= 0;
  const int served = reached_mla ? cols - q.leaves_failed : 0;
  const double coverage = static_cast<double>(served) / static_cast<double>(cols);
  const QueryResult result{.id = q.work.id,
                           .submit_time = q.tla_submit,
                           .finish_time = now,
                           .dropped = !reached_mla || coverage < options_.min_leaf_coverage,
                           .latency_ms = ToMillis(now - q.tla_submit),
                           .chunks_total = cols,
                           .chunks_served = served,
                           .degraded = reached_mla && q.leaves_failed > 0};
  if (result.dropped) {
    ++queries_failed_;
  } else {
    ++queries_completed_;
    if (result.degraded) {
      ++queries_degraded_;
    }
    coverage_fraction_.Add(coverage);
    tla_latency_ms_.Add(result.latency_ms);
  }
  if (tracer_ != nullptr && q.work.trace_ctx != 0) {
    tracer_->EndTrace(q.work.trace_ctx, now, result.dropped);
  }
  IndexServer::QueryDoneFn done = std::move(q.done);  // leaves q.done empty
  queries_.Release(slot);
  if (done) {
    done(result);
  }
}

void Cluster::ForEachIndexNode(const std::function<void(IndexNodeRig&)>& fn) {
  for (auto& node : index_nodes_) {
    fn(*node);
  }
}

int64_t Cluster::SecondaryEgressBytes() const {
  int64_t bytes = 0;
  for (int i = 0; i < NumIndexNodes(); ++i) {
    bytes += fabric_->netdev(i).tx().stats().bytes_serialized[static_cast<size_t>(
        NetClass::kSecondary)];
  }
  return bytes;
}

void Cluster::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  fabric_->EnableTracing(tracer);
  for (auto& node : index_nodes_) {
    node->EnableTracing(tracer);
  }
  for (auto& tla : tla_machines_) {
    tla->EnableTracing(tracer);
  }
}

LatencyRecorder Cluster::MergedLeafLatency() const {
  LatencyRecorder merged;
  for (const auto& node : index_nodes_) {
    merged.Merge(node->server().stats().latency_ms);
  }
  return merged;
}

int64_t Cluster::leaf_drops() const {
  int64_t drops = 0;
  for (const auto& node : index_nodes_) {
    drops += node->server().stats().TotalDropped();
  }
  return drops;
}

void Cluster::ResetStats() {
  inflight_at_reset_ = queries_inflight();
  mla_latency_ms_.Clear();
  tla_latency_ms_.Clear();
  coverage_fraction_.Clear();
  queries_submitted_ = 0;
  queries_completed_ = 0;
  queries_failed_ = 0;
  queries_degraded_ = 0;
  for (auto& node : index_nodes_) {
    node->server().ResetStats();
  }
  fabric_->ResetStats();
}

std::vector<IndexNodeRig::UtilizationSnapshot> Cluster::SnapshotAll() const {
  std::vector<IndexNodeRig::UtilizationSnapshot> snaps;
  snaps.reserve(index_nodes_.size());
  for (const auto& node : index_nodes_) {
    snaps.push_back(node->SnapshotUtilization());
  }
  return snaps;
}

double Cluster::MeanUtilizationSince(
    const std::vector<IndexNodeRig::UtilizationSnapshot>& snaps, TenantClass tenant) const {
  assert(snaps.size() == index_nodes_.size());
  double sum = 0;
  for (size_t i = 0; i < index_nodes_.size(); ++i) {
    sum += index_nodes_[i]->UtilizationSince(snaps[i], tenant);
  }
  return index_nodes_.empty() ? 0 : sum / static_cast<double>(index_nodes_.size());
}

double Cluster::MeanBusyFractionSince(
    const std::vector<IndexNodeRig::UtilizationSnapshot>& snaps) const {
  double busy = 0;
  busy += MeanUtilizationSince(snaps, TenantClass::kPrimary);
  busy += MeanUtilizationSince(snaps, TenantClass::kSecondary);
  busy += MeanUtilizationSince(snaps, TenantClass::kOs);
  return busy;
}

}  // namespace perfiso
