// InvariantChecker: SLO / conservation assertions that must hold at any
// observation point, faults or not.
//
// Checked invariants:
//   * Query conservation — every submitted query reaches exactly one terminal
//     state: submitted + inflight_at_reset ==
//     completed + dropped_timeout + dropped_admission + dropped_crash +
//     inflight (and inflight == 0 once the simulation drains).
//   * Query slots — the server's occupied query slots equal inflight, so a
//     leaked or double-freed slot fails every checked run.
//   * IO slots — each of a rig's IoSchedulers has as many occupied request
//     slots as requests queued at it plus requests outstanding at its drives,
//     so a leaked or double-freed slot fails every checked run; both counts
//     are 0 once the simulation drains.
//   * No completions while crashed — a dead machine delivers nothing
//     (IndexServer::Stats::completions_while_crashed stays 0).
//   * Budget caps — hedges never exceed the hedge budget; retries only happen
//     when the retry policy is enabled.
//   * Coverage sanity — recorded per-query coverage fractions stay in [0, 1],
//     and degraded completions never dip below the configured floor.
//   * Machine engine state — SimMachine::CheckInvariants (run-queue/core
//     bookkeeping) holds on every checked machine.
//   * Quiet polls — a quiet PerfIso controller's machine has its idle count
//     inside the controller's quiet range.
//   * Routing consistency (cluster) — the cluster's health-check view of a
//     node agrees with the node's own crashed flag.
//   * Flow records (cluster) — the fabric's occupied flow records equal its
//     flows in flight (a leaked or double-freed record), and both are 0 once
//     the simulation drains.
//
// The checker only reads; it never mutates the simulation, so checking is
// digest-neutral and can run every bench iteration.
#ifndef PERFISO_SRC_FAULT_INVARIANT_CHECKER_H_
#define PERFISO_SRC_FAULT_INVARIANT_CHECKER_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/indexserve/index_server.h"

namespace perfiso {

struct InvariantReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  void Violation(std::string what) { violations.push_back(std::move(what)); }
  // One violation per line; "invariants ok" when clean.
  std::string ToString() const;
};

class InvariantChecker {
 public:
  // `expect_drained` adds the end-state requirement that nothing is in
  // flight (use after the simulator runs dry; bench mid-run checks pass
  // false).
  static void CheckServer(const IndexServer& server, bool expect_drained,
                          InvariantReport* report);
  // Server checks plus the machine's own engine invariants.
  static void CheckRig(IndexNodeRig& rig, bool expect_drained, InvariantReport* report);
  // Every rig, cluster-level conservation, routing-view consistency, and the
  // fabric's flow records.
  static void CheckCluster(Cluster& cluster, bool expect_drained, InvariantReport* report);
};

}  // namespace perfiso

#endif  // PERFISO_SRC_FAULT_INVARIANT_CHECKER_H_
