// The multi-machine IndexServe cluster of §5.3 / Fig. 3.
//
// Topology: the index is split into `columns` partitions, replicated across
// `rows` rows; every IndexServe machine holds one (row, column) slice.
// Top-level aggregators (TLAs) run on separate machines; they round-robin
// incoming queries across rows and pick a mid-level aggregator (MLA) from the
// chosen row. The MLA fans the query out to every column of its row
// (including itself), aggregates the responses — the slowest leaf dictates
// the response time [15] — and replies to the TLA.
//
// All inter-machine RPCs travel through a Fabric (src/net/): every machine
// attaches with a priority NIC, racks share oversubscribed ToR uplinks, and
// MLA fan-in serializes at the aggregator's RX link (genuine incast rather
// than a closed-form constant). Secondary-class flows drain the per-machine
// egress bucket, so PerfIso's egress cap has an end-to-end effect.
//
// Latency is measured at each layer as in Fig. 9: per-leaf (IndexServer
// internal), per-MLA (arrival at MLA to reply), and per-TLA (end to end).
#ifndef PERFISO_SRC_CLUSTER_CLUSTER_H_
#define PERFISO_SRC_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/index_node.h"
#include "src/net/fabric.h"
#include "src/util/slot_pool.h"
#include "src/util/stats.h"
#include "src/workload/query_trace.h"

namespace perfiso {

struct ClusterTopology {
  int columns = 22;
  int rows = 2;
  int tla_machines = 31;  // separate from the 44 index machines (75 total)
};

struct ClusterOptions {
  ClusterTopology topology;
  FabricConfig fabric;  // rates and RPC payload sizes
  IndexNodeOptions node;
  // Aggregation CPU costs on MLA/TLA machines.
  double mla_merge_cpu_us = 40;    // per leaf response
  double mla_finalize_cpu_us = 250;
  double tla_cpu_us = 150;
  // Graceful degradation: a query whose answered-leaf fraction is at least
  // this completes (degraded when below 1.0); below it the TLA fails the
  // query. Failed-coverage leaves are crashed leaves plus per-leaf drops.
  double min_leaf_coverage = 0.5;
  uint64_t seed = 42;
};

class Cluster {
 public:
  Cluster(Simulator* sim, const ClusterOptions& options);

  // Submits a query to a TLA (round-robin); `done` fires with the end-to-end
  // result at the TLA.
  void SubmitQuery(const QueryWork& work, IndexServer::QueryDoneFn done = nullptr);

  // Runs `fn` on every index node (e.g. to start bullies or PerfIso).
  void ForEachIndexNode(const std::function<void(IndexNodeRig&)>& fn);

  // Enables tracing everywhere: fabric tracks, every index node (machine,
  // server, volumes, schedulers), every TLA machine. Queries submitted
  // afterwards carry one "tla" trace context end to end — TLA forward, fabric
  // hops, every leaf's stages and I/O, MLA merge, and the final reply.
  void EnableTracing(Tracer* tracer);

  int NumIndexNodes() const { return static_cast<int>(index_nodes_.size()); }
  IndexNodeRig& index_node(int i) { return *index_nodes_[static_cast<size_t>(i)]; }

  // The routing (health-check) view of a node, read from the node itself:
  // TLAs skip crashed MLAs, and MLAs do not fan out to crashed leaves (the
  // leaf counts as failed coverage immediately).
  bool NodeCrashed(int node) const { return index_nodes_[static_cast<size_t>(node)]->crashed(); }

  // The network: index nodes attach first (endpoint i == index node i), TLA
  // machines after.
  Fabric& fabric() { return *fabric_; }
  int index_endpoint(int i) const { return i; }
  int tla_endpoint(int i) const { return NumIndexNodes() + i; }

  // Secondary-class bytes serialized by index-machine NIC TX queues since the
  // given fabric stats reset, summed — the cluster's secondary egress volume.
  int64_t SecondaryEgressBytes() const;

  // --- Per-layer latency distributions (ms), as reported in Fig. 9 ----------
  // Merged across all leaves / MLAs / TLAs.
  LatencyRecorder MergedLeafLatency() const;
  const LatencyRecorder& MlaLatency() const { return mla_latency_ms_; }
  const LatencyRecorder& TlaLatency() const { return tla_latency_ms_; }
  int64_t queries_submitted() const { return queries_submitted_; }
  int64_t queries_completed() const { return queries_completed_; }
  // Queries the TLA failed: leaf coverage below min_leaf_coverage, or the
  // whole row crashed. Disjoint from queries_completed.
  int64_t queries_failed() const { return queries_failed_; }
  // Subset of completed: answered with partial leaf coverage.
  int64_t queries_degraded() const { return queries_degraded_; }
  // Conservation residue (InvariantChecker: >= 0 always, == 0 when drained).
  // Queries in flight at the last ResetStats finish without a matching
  // `submitted` tick, hence the carry term.
  int64_t queries_inflight() const {
    return queries_submitted_ + inflight_at_reset_ - queries_completed_ - queries_failed_;
  }
  // Query slots held: equals queries_inflight() unless a slot leaked or was
  // freed twice (InvariantChecker asserts it).
  int64_t occupied_slots() const { return queries_.occupied(); }
  // Per completed query: fraction of the row's leaves that answered.
  const LatencyRecorder& LeafCoverage() const { return coverage_fraction_; }
  int64_t leaf_drops() const;

  void ResetStats();

  // Mean utilization fraction across index machines for a tenant since the
  // snapshots were taken with SnapshotAll().
  std::vector<IndexNodeRig::UtilizationSnapshot> SnapshotAll() const;
  double MeanUtilizationSince(const std::vector<IndexNodeRig::UtilizationSnapshot>& snaps,
                              TenantClass tenant) const;
  double MeanBusyFractionSince(
      const std::vector<IndexNodeRig::UtilizationSnapshot>& snaps) const;

 private:
  // One query from SubmitQuery to EndQuery, owned in the slot pool. Every
  // continuation of a query runs before it ends (DESIGN.md §9 "Slot pools"),
  // so the stages name it by bare slot id; SimSan checks each is still held.
  struct PendingQuery {
    QueryWork work;
    IndexServer::QueryDoneFn done;
    SimTime tla_submit = 0;   // arrival at the TLA
    SimTime mla_arrival = 0;  // arrival at the MLA
    int tla_machine = 0;
    int row = 0;
    int mla_node = -1;  // -1 until the TLA finds a live MLA in the row
    int leaves_left = 0;
    // Leaves that contributed no answer: crashed at fan-out time, refused the
    // request (crash between send and delivery), or dropped it server-side.
    int leaves_failed = 0;
  };

  // The stages of a query, in order. Each continuation captures only
  // [this, slot] (plus the column for per-leaf steps): no allocation.
  void RouteAtTla(uint32_t slot);
  void FanOut(uint32_t slot);
  void StartLeaf(uint32_t slot, int col);
  void LeafAnswered(uint32_t slot, int col, bool dropped);
  void Merge(uint32_t slot);
  void LeafMerged(uint32_t slot);
  void Finalized(uint32_t slot);
  void RepliedAtTla(uint32_t slot);
  // The one way a query ends: counts it, ends its trace, frees the slot, then
  // hands the result to done (which may re-enter SubmitQuery).
  void EndQuery(uint32_t slot);

  Simulator* sim_;
  ClusterOptions options_;
  Rng rng_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<IndexNodeRig>> index_nodes_;  // row-major [row][col]
  std::vector<std::unique_ptr<SimMachine>> tla_machines_;
  size_t next_tla_ = 0;
  int next_row_ = 0;
  std::vector<size_t> next_mla_in_row_;
  LatencyRecorder mla_latency_ms_;
  LatencyRecorder tla_latency_ms_;
  LatencyRecorder coverage_fraction_;
  int64_t queries_submitted_ = 0;
  int64_t queries_completed_ = 0;
  int64_t queries_failed_ = 0;
  int64_t queries_degraded_ = 0;
  int64_t inflight_at_reset_ = 0;
  SlotPool<PendingQuery> queries_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_CLUSTER_CLUSTER_H_
