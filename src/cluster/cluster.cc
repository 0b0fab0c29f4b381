#include "src/cluster/cluster.h"

#include <cassert>

namespace perfiso {

struct Cluster::PendingQuery {
  QueryWork work;
  IndexServer::QueryDoneFn done;
  SimTime tla_submit = 0;   // arrival at the TLA
  SimTime mla_arrival = 0;  // arrival at the MLA
  int mla_node = 0;
  int row = 0;
  int leaves_left = 0;
  // Leaves that contributed no answer: crashed at fan-out time, refused the
  // request (crash between send and delivery), or dropped it server-side.
  int leaves_failed = 0;
  int tla_machine = 0;
};

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
      SimPlatform* platform = &rig->platform();
      fabric_->SetEgressBucketProvider(endpoint,
                                       [platform] { return platform->egress_bucket(); });
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
  crashed_.assign(index_nodes_.size(), false);
}

void Cluster::SubmitQuery(const QueryWork& work, IndexServer::QueryDoneFn done) {
  ++queries_submitted_;
  auto pending = std::make_shared<PendingQuery>();
  pending->work = work;
  pending->done = std::move(done);
  pending->tla_submit = sim_->Now();
  pending->tla_machine = static_cast<int>(next_tla_);
  next_tla_ = (next_tla_ + 1) % tla_machines_.size();
  if (tracer_ != nullptr && pending->work.trace_ctx == 0) {
    // One context for the whole tree: TLA forward, fabric hops, every leaf's
    // stages and I/O, MLA merge, final reply. Leaves adopt it via QueryWork.
    pending->work.trace_ctx = tracer_->BeginTrace("tla", pending->tla_submit);
  }

  // TLA request processing, then forward to a row (round-robin).
  pending->row = next_row_;
  next_row_ = (next_row_ + 1) % options_.topology.rows;
  SimMachine* tla = tla_machines_[static_cast<size_t>(pending->tla_machine)].get();
  tla->SpawnThread(
      TenantClass::kPrimary, JobId{}, FromMicros(options_.tla_cpu_us),
      [this, pending](SimTime now) {
        // Pick the MLA within the row (TLA load balancing), skipping nodes
        // the health checks know to be crashed. With nothing crashed the
        // first probe hits the cursor, exactly the pre-fault round-robin.
        const int cols = options_.topology.columns;
        auto& cursor = next_mla_in_row_[static_cast<size_t>(pending->row)];
        int chosen = -1;
        for (int probe = 0; probe < cols; ++probe) {
          const int candidate =
              pending->row * cols +
              static_cast<int>((cursor + static_cast<size_t>(probe)) % static_cast<size_t>(cols));
          if (!crashed_[static_cast<size_t>(candidate)]) {
            chosen = candidate;
            cursor = (cursor + static_cast<size_t>(probe) + 1) % static_cast<size_t>(cols);
            break;
          }
        }
        if (chosen < 0) {
          // The whole row is down: nothing can serve this query.
          FailAtTla(pending, now);
          return;
        }
        pending->mla_node = chosen;
        fabric_->Send(tla_endpoint(pending->tla_machine),
                      index_endpoint(pending->mla_node),
                      options_.fabric.request_bytes, NetClass::kPrimary,
                      [this, pending](SimTime) { RunMla(pending); },
                      pending->work.trace_ctx);
      },
      pending->work.trace_ctx);
}

void Cluster::RunMla(const std::shared_ptr<PendingQuery>& pending) {
  pending->mla_arrival = sim_->Now();
  const int cols = options_.topology.columns;
  pending->leaves_left = cols;
  IndexNodeRig& mla = *index_nodes_[static_cast<size_t>(pending->mla_node)];

  for (int col = 0; col < cols; ++col) {
    const int leaf_index = pending->row * cols + col;
    IndexNodeRig& leaf = *index_nodes_[static_cast<size_t>(leaf_index)];
    const bool local = leaf_index == pending->mla_node;

    if (crashed_[static_cast<size_t>(leaf_index)]) {
      // Health checks: no request is sent to a known-dead leaf — no events
      // are delivered to crashed machines. It counts as failed coverage
      // immediately.
      ++pending->leaves_failed;
      if (--pending->leaves_left == 0) {
        FinalizeMla(pending);
      }
      continue;
    }

    auto run_leaf = [this, pending, &leaf, &mla, leaf_index, local] {
      leaf.server().SubmitQuery(pending->work, [this, pending, &mla, leaf_index,
                                                local](const QueryResult& leaf_result) {
        // A dropped leaf (timeout, admission, or a crash that raced the
        // request) answered nothing: failed coverage. The (error) response
        // still travels back and merges, keeping the event sequence of
        // no-fault runs untouched.
        if (leaf_result.dropped) {
          ++pending->leaves_failed;
        }
        auto merge = [this, pending, &mla](SimTime) {
          // Merge work on the MLA machine for this leaf response.
          mla.machine().SpawnThread(
              TenantClass::kPrimary, mla.server().job(), FromMicros(options_.mla_merge_cpu_us),
              [this, pending](SimTime) {
                if (--pending->leaves_left == 0) {
                  FinalizeMla(pending);
                }
              },
              pending->work.trace_ctx);
        };
        if (local) {
          merge(sim_->Now());
        } else {
          // Leaf response travels back over the fabric (MLA fan-in: all
          // columns' responses converge on the MLA's RX link — incast).
          fabric_->Send(index_endpoint(leaf_index), index_endpoint(pending->mla_node),
                        options_.fabric.leaf_response_bytes, NetClass::kPrimary,
                        std::move(merge), pending->work.trace_ctx);
        }
      });
    };
    if (local) {
      run_leaf();
    } else {
      fabric_->Send(index_endpoint(pending->mla_node), index_endpoint(leaf_index),
                    options_.fabric.request_bytes, NetClass::kPrimary,
                    [run_leaf](SimTime) { run_leaf(); }, pending->work.trace_ctx);
    }
  }
}

void Cluster::FinalizeMla(const std::shared_ptr<PendingQuery>& pending) {
  // All leaf slots accounted for: finalize on the MLA, reply to the TLA.
  IndexNodeRig& mla = *index_nodes_[static_cast<size_t>(pending->mla_node)];
  mla.machine().SpawnThread(
      TenantClass::kPrimary, mla.server().job(), FromMicros(options_.mla_finalize_cpu_us),
      [this, pending](SimTime now) {
        mla_latency_ms_.Add(ToMillis(now - pending->mla_arrival));
        fabric_->Send(
            index_endpoint(pending->mla_node), tla_endpoint(pending->tla_machine),
            options_.fabric.final_response_bytes, NetClass::kPrimary,
            [this, pending](SimTime) {
              SimMachine* tla = tla_machines_[static_cast<size_t>(pending->tla_machine)].get();
              tla->SpawnThread(
                  TenantClass::kPrimary, JobId{}, FromMicros(options_.tla_cpu_us),
                  [this, pending](SimTime end) {
                    const int cols = options_.topology.columns;
                    const double coverage =
                        cols == 0 ? 1.0
                                  : static_cast<double>(cols - pending->leaves_failed) /
                                        static_cast<double>(cols);
                    const bool failed = coverage < options_.min_leaf_coverage;
                    QueryResult result;
                    result.id = pending->work.id;
                    result.submit_time = pending->tla_submit;
                    result.finish_time = end;
                    result.latency_ms = ToMillis(end - pending->tla_submit);
                    result.chunks_total = cols;
                    result.chunks_served = cols - pending->leaves_failed;
                    result.degraded = pending->leaves_failed > 0;
                    result.dropped = failed;
                    if (failed) {
                      ++queries_failed_;
                    } else {
                      ++queries_completed_;
                      if (pending->leaves_failed > 0) {
                        ++queries_degraded_;
                      }
                      coverage_fraction_.Add(coverage);
                      tla_latency_ms_.Add(result.latency_ms);
                    }
                    if (tracer_ != nullptr && pending->work.trace_ctx != 0) {
                      tracer_->EndTrace(pending->work.trace_ctx, end, failed);
                    }
                    if (pending->done) {
                      pending->done(result);
                    }
                  },
                  pending->work.trace_ctx);
            },
            pending->work.trace_ctx);
      },
      pending->work.trace_ctx);
}

void Cluster::FailAtTla(const std::shared_ptr<PendingQuery>& pending, SimTime now) {
  ++queries_failed_;
  if (tracer_ != nullptr && pending->work.trace_ctx != 0) {
    tracer_->EndTrace(pending->work.trace_ctx, now, /*dropped=*/true);
  }
  if (pending->done) {
    QueryResult result;
    result.id = pending->work.id;
    result.submit_time = pending->tla_submit;
    result.finish_time = now;
    result.latency_ms = ToMillis(now - pending->tla_submit);
    result.dropped = true;
    result.chunks_total = options_.topology.columns;
    pending->done(result);
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
