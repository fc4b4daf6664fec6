// Warm-start incremental min-cut session.
//
// The online repartitioner and the fleet service cut long series of
// graphs that differ only by capacity drift. IncrementalMinCut owns a
// CompactFlowNetwork plus the last maximum flow computed on it; a batch
// of capacity deltas is absorbed by *repairing* that flow instead of
// resolving from zero:
//
//  * Capacity increase: nothing to repair — existing flow stays feasible,
//    the new residual headroom is picked up when the solver re-saturates
//    the source's out-arcs and resumes discharging.
//  * Capacity decrease: any arc now carrying flow above its capacity is
//    clipped to the new capacity. Clipping d units off arc (u, v) leaves
//    +d surplus at u (it sent d units that no longer leave) and a -d
//    deficit at v (it forwarded d units it no longer receives). Surplus
//    is ordinary preflow excess; deficits are cancelled by draining the
//    deficit node's own positive-flow out-arcs until its balance is
//    restored — each drain may move the deficit one hop downstream, and
//    the walk terminates because a deficit node's outflow exceeds its
//    inflow by exactly the deficit, and the terminals absorb imbalance.
//
// After repair the flow is capacity-feasible with non-negative excess at
// every non-terminal node — precisely the PushRelabelSolver warm-start
// precondition — so the solver resumes discharging and only re-routes
// the displaced units. Exactness is preserved because the solver still
// runs to a full maximum flow, and every maximum flow yields the same
// unique minimal source side (the residual-reachable set), so warm and
// cold solves return identical partitions, not just equal values.
//
// Safety valve: if the retained flow has saturated (any |flow| at the
// sentinel, or a node's flows summing to it — possible only on
// sentinel-capacity graphs) or the previous solve was infeasible, delta
// repair is unsound and the session silently falls back to a cold solve.
// Exactness over speed. The valve is also why sentinel arcs defeat warm
// starts: push-relabel opens by pushing the sentinel itself down every
// sentinel arc out of the source, and where two such pushes meet (two
// pinned nodes joined by a constraint edge) the excess saturates and
// absorbs units, so a source arc is left carrying exactly the sentinel
// after every solve and every later repair is declined. The analysis
// engine therefore contracts its constraint edges away before a session
// sees the network (see src/analysis/engine.h); sentinel graphs stay
// correct here, only cold.

#ifndef COIGN_SRC_MINCUT_INCREMENTAL_H_
#define COIGN_SRC_MINCUT_INCREMENTAL_H_

#include <vector>

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/push_relabel.h"

namespace coign {

class IncrementalMinCut {
 public:
  IncrementalMinCut() = default;

  // Installs a finalized network (flows are reset). Solver scratch is
  // kept, so re-seating a session on a new graph of similar size does not
  // reallocate.
  void Reset(CompactFlowNetwork network, int source, int sink);

  bool has_network() const { return has_network_; }
  const CompactFlowNetwork& network() const { return network_; }
  int source() const { return source_; }
  int sink() const { return sink_; }

  // Stages a capacity change for an edge id returned by the network's
  // AddArc/AddEdge. Takes effect at the next Solve().
  void SetEdgeCapacity(int edge_id, CapUnits capacity);

  // Computes the min cut for the current capacities: cold on the first
  // call (or after Reset / fallback), warm-repair + resume otherwise.
  CutResult Solve();

  // Counters for the most recent Solve() (solver work + warm-start
  // accounting) and accumulated across the session's lifetime.
  const MinCutSolveStats& last_stats() const { return last_stats_; }
  const MinCutSolveStats& total_stats() const { return total_stats_; }

 private:
  // Clips over-capacity flow and cancels the resulting deficits. Returns
  // false if the retained flow cannot be soundly repaired (saturated
  // values) — caller cold-solves instead.
  bool RepairFlow();

  CompactFlowNetwork network_;
  PushRelabelSolver solver_;
  MinCutSolveStats last_stats_;
  MinCutSolveStats total_stats_;
  std::vector<int> dirty_edges_;
  std::vector<CapUnits> balance_;     // Scratch: derived excess per node.
  std::vector<int> deficit_queue_;    // Scratch: deficit-cancel worklist.
  int source_ = 0;
  int sink_ = 1;
  bool has_network_ = false;
  bool has_flow_ = false;             // A prior solve's flow is retained.
  bool last_infeasible_ = false;
};

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_INCREMENTAL_H_
