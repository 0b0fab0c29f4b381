#include "src/fault/invariant_checker.h"

#include <utility>

namespace perfiso {

std::string InvariantReport::ToString() const {
  if (violations.empty()) {
    return "invariants ok";
  }
  std::string out;
  for (const std::string& violation : violations) {
    out += violation;
    out += '\n';
  }
  return out;
}

void InvariantChecker::CheckServer(const IndexServer& server, bool expect_drained,
                                   InvariantReport* report) {
  const IndexServer::Stats& stats = server.stats();

  // Conservation: every query reaches exactly one terminal state.
  const int64_t terminal = stats.completed + stats.dropped_timeout + stats.dropped_admission +
                           stats.dropped_crash;
  const int64_t expected_inflight = stats.submitted + server.inflight_at_reset() - terminal;
  if (server.inflight() != expected_inflight) {
    report->Violation("conservation: submitted=" + std::to_string(stats.submitted) +
                      " +carry=" + std::to_string(server.inflight_at_reset()) +
                      " terminal=" + std::to_string(terminal) +
                      " but inflight=" + std::to_string(server.inflight()));
  }
  if (server.inflight() < 0) {
    report->Violation("inflight negative: " + std::to_string(server.inflight()));
  }
  // Every in-flight query holds exactly one slot: a leaked slot (a query that
  // never ended) or a double free breaks this.
  if (server.occupied_query_slots() != server.inflight()) {
    report->Violation("query slots: occupied=" + std::to_string(server.occupied_query_slots()) +
                      " but inflight=" + std::to_string(server.inflight()));
  }
  if (expect_drained && server.inflight() != 0) {
    report->Violation("drained run still has inflight=" + std::to_string(server.inflight()));
  }

  // A crashed machine delivers nothing.
  if (stats.completions_while_crashed != 0) {
    report->Violation("completions while crashed: " +
                      std::to_string(stats.completions_while_crashed));
  }

  // Budget caps. The +1 absorbs the boundary case where the budget check
  // passed just below the cap and the issue tipped it over; hedges_issued is
  // windowed by ResetStats while chunks_started is cumulative, so the bound
  // only ever loosens.
  const IndexServeConfig& config = server.config();
  if (config.hedging_enabled &&
      static_cast<double>(stats.hedges_issued) >
          config.hedge_budget_fraction * static_cast<double>(server.chunks_started()) + 1.0) {
    report->Violation("hedge budget exceeded: issued=" + std::to_string(stats.hedges_issued) +
                      " started=" + std::to_string(server.chunks_started()));
  }
  if (!config.chunk_retry.enabled &&
      (stats.retries_issued != 0 || stats.timeouts_detected != 0)) {
    report->Violation("retry activity with retry disabled: issued=" +
                      std::to_string(stats.retries_issued));
  }

  // Coverage fractions are per-query in [0, 1]; degraded completions never
  // close below the configured floor.
  if (stats.coverage.Count() > 0) {
    if (stats.coverage.Min() < 0.0 || stats.coverage.Max() > 1.0) {
      report->Violation("coverage outside [0,1]: min=" + std::to_string(stats.coverage.Min()) +
                        " max=" + std::to_string(stats.coverage.Max()));
    }
    if (stats.completed_degraded > 0 && config.degrade_deadline > 0 &&
        stats.coverage.Min() < config.min_chunk_coverage) {
      report->Violation("degraded completion below coverage floor: min=" +
                        std::to_string(stats.coverage.Min()));
    }
  }
  if (stats.completed_degraded > stats.completed) {
    report->Violation("degraded exceeds completed");
  }
}

void InvariantChecker::CheckRig(IndexNodeRig& rig, bool expect_drained,
                                InvariantReport* report) {
  CheckServer(rig.server(), expect_drained, report);
  const Status machine_ok = rig.machine().CheckInvariants();
  if (!machine_ok.ok()) {
    report->Violation(rig.machine().name() + ": " + machine_ok.ToString());
  }
  // Every request the disk stack holds sits in one scheduler slot: queued at
  // the scheduler or outstanding at a drive. A leaked or double-freed slot
  // breaks the equality.
  const std::pair<const char*, const IoScheduler*> schedulers[] = {
      {"ssd", &rig.ssd_scheduler()}, {"hdd", &rig.hdd_scheduler()}};
  for (const auto& [volume, io] : schedulers) {
    if (io->occupied_slots() != io->queued() + io->outstanding()) {
      report->Violation(rig.machine().name() + " " + volume +
                        " io slots: occupied=" + std::to_string(io->occupied_slots()) +
                        " but queued=" + std::to_string(io->queued()) +
                        " outstanding=" + std::to_string(io->outstanding()));
    }
    if (expect_drained && io->queued() + io->outstanding() != 0) {
      report->Violation(rig.machine().name() + " " + volume + " drained run still has io queued=" +
                        std::to_string(io->queued()) +
                        " outstanding=" + std::to_string(io->outstanding()));
    }
  }
  // A quiet controller skips its decision because the idle watch guarantees
  // the count is inside the no-op range; that holds at any instant.
  const PerfIsoController* controller = rig.perfiso();
  if (controller != nullptr && controller->quiet()) {
    const BlindIsolationPolicy::IdleRange range = controller->QuietRange();
    const int idle = rig.machine().IdleCount();
    if (!range.Contains(idle)) {
      report->Violation(rig.machine().name() + ": quiet controller with idle count " +
                        std::to_string(idle) + " outside [" + std::to_string(range.lo) + ", " +
                        std::to_string(range.hi) + "]");
    }
  }
}

void InvariantChecker::CheckCluster(Cluster& cluster, bool expect_drained,
                                    InvariantReport* report) {
  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    IndexNodeRig& rig = cluster.index_node(i);
    CheckRig(rig, expect_drained, report);
    // The routing (health-check) view must agree with the node itself —
    // otherwise queries are sent to dead machines or steered off live ones.
    if (cluster.NodeCrashed(i) != rig.crashed()) {
      report->Violation("node " + std::to_string(i) + " routing view crashed=" +
                        std::to_string(cluster.NodeCrashed(i)) + " but server crashed=" +
                        std::to_string(rig.crashed()));
    }
  }
  if (cluster.queries_inflight() < 0) {
    report->Violation("cluster inflight negative: " +
                      std::to_string(cluster.queries_inflight()));
  }
  if (expect_drained && cluster.queries_inflight() != 0) {
    report->Violation("drained cluster still has inflight=" +
                      std::to_string(cluster.queries_inflight()));
  }
  const LatencyRecorder& coverage = cluster.LeafCoverage();
  if (coverage.Count() > 0 && (coverage.Min() < 0.0 || coverage.Max() > 1.0)) {
    report->Violation("cluster coverage outside [0,1]");
  }
  if (cluster.queries_degraded() > cluster.queries_completed()) {
    report->Violation("cluster degraded exceeds completed");
  }
  const Fabric& fabric = cluster.fabric();
  if (fabric.occupied_flow_records() != fabric.flows_in_flight()) {
    report->Violation("flow records: occupied=" + std::to_string(fabric.occupied_flow_records()) +
                      " but flows in flight=" + std::to_string(fabric.flows_in_flight()));
  }
  if (expect_drained && fabric.flows_in_flight() != 0) {
    report->Violation("drained fabric still has flows in flight=" +
                      std::to_string(fabric.flows_in_flight()));
  }
}

}  // namespace perfiso
