// The profile analysis engine (paper §2).
//
// Pipeline: ICC profile + location constraints → abstract ICC graph →
// (× network profile) → concrete graph → minimum cut → distribution.
// The paper keeps the graph in two halves, and so does the engine.
// Compile() builds the network-independent half once per profile: the
// constraints, the concrete edge list with each edge's message count and
// bytes, and a flow network over the constraint-contracted graph.
// Analyze() on a CompiledProfile prices that half for one network (one
// EdgeSeconds and one SecondsToCapUnits per edge) and cuts it. A caller
// that prices one profile under many networks — the fleet service —
// compiles once and analyzes many times.
//
// Contraction. Every constraint edge (API pin, programmer pin,
// colocation, non-remotable pair) is un-cuttable, so its endpoints are
// merged by union-find before any network is seen: the group holding the
// client terminal is the source, the group holding the server terminal
// the sink, and communication edges inside a group vanish. This is
// exact: a sentinel edge lies on no finite cut, so every finite cut of
// the original graph is a cut of the contracted one with the same value,
// and the unique minimal source side — a union of groups — is
// unchanged. If source and sink share a group, no finite cut exists and
// the constraints are unsatisfiable. The contracted network has no
// sentinel arcs at all, which is also what lets warm starts hit (see
// MinCutSession and src/mincut/incremental.h).
//
// The production cut is highest-label push-relabel on that contracted
// CSR network, warm-startable across calls through a MinCutSession. The
// paper's lift-to-front algorithm and Edmonds-Karp remain selectable for
// cross-checking and ablation; they cut the *uncontracted* network (one
// edge per concrete edge, constraints as sentinels), so comparing them
// with the production path tests the contraction too. All three return
// the identical exact cut: for a maximum flow the residual-reachable
// source side is the unique minimal minimum cut, so the distribution does
// not depend on the algorithm (or on warm vs cold starts).

#ifndef COIGN_SRC_ANALYSIS_ENGINE_H_
#define COIGN_SRC_ANALYSIS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/graph/concrete_graph.h"
#include "src/graph/constraints.h"
#include "src/graph/distribution.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/net/network_profiler.h"
#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

enum class CutAlgorithm {
  kPushRelabel,     // Production: highest-label push-relabel, CSR, warm-startable.
  kRelabelToFront,  // The paper's lift-to-front min-cut (differential oracle).
  kEdmondsKarp,     // Baseline for verification/ablation.
};

struct AnalysisOptions {
  CutAlgorithm algorithm = CutAlgorithm::kPushRelabel;
  // Extra explicit constraints merged on top of API-derived ones.
  LocationConstraints extra_constraints;
  // When false, API-derived pins are skipped (ablation).
  bool derive_api_constraints = true;
};

struct CutEdgeReport {
  ClassificationId client_side = kNoClassification;
  ClassificationId server_side = kNoClassification;
  double seconds = 0.0;
};

struct AnalysisResult {
  Distribution distribution;
  // The exact fixed-point cut value (picosecond units) the min-cut layer
  // chose — both algorithms return this identical integer. Reports convert
  // it back to seconds with CapUnitsToSeconds for display.
  CapUnits cut_value_units = 0;
  // Predicted inter-machine communication time of the chosen distribution.
  double predicted_comm_seconds = 0.0;
  // Communication time if every pair were split — the graph's total weight.
  double total_comm_seconds = 0.0;
  // Classifications per side.
  size_t client_classifications = 0;
  size_t server_classifications = 0;
  // Profiled instances per side (what the paper's figures count).
  uint64_t client_instances = 0;
  uint64_t server_instances = 0;
  // Pairs joined by non-remotable interfaces (solid black lines in Figs 4-5).
  size_t non_remotable_pairs = 0;
  // Crossing communication edges, heaviest first.
  std::vector<CutEdgeReport> cut_edges;
};

// A profile compiled for repeated pricing: everything Analyze needs that
// does not depend on the network. Immutable once built, so one value may
// be shared by concurrent Analyze calls on many threads.
class CompiledProfile {
 public:
  // Dense nodes: the two terminals (ConcreteGraph::kClientNode/kServerNode)
  // and the classifications from 2, in ConcreteGraph's numbering.
  int node_count() const { return static_cast<int>(node_ids_.size()) + 2; }
  ClassificationId ClassificationAt(int node) const { return node_ids_[node - 2]; }
  // False when the constraints join the two terminals: no finite cut.
  bool satisfiable() const { return satisfiable_; }
  // The constraint-contracted network (finalized, zero capacities): node 0
  // is the client's group, node 1 the server's. Empty when unsatisfiable.
  const CompactFlowNetwork& network() const { return network_; }

 private:
  friend class ProfileAnalysisEngine;

  std::vector<ClassificationId> node_ids_;  // Dense index - 2 → classification.
  std::vector<uint64_t> instances_;         // Dense index - 2 → profiled instances.
  std::vector<UnpricedEdge> edges_;         // ConcreteGraph::Build's edges, in order.
  size_t non_remotable_pairs_ = 0;
  bool satisfiable_ = true;
  std::vector<int> group_;         // Dense node → contracted node.
  std::vector<int> network_edge_;  // Edge index → contracted edge id, or -1.
  CompactFlowNetwork network_;
};

// Warm-start cut state carried across Analyze calls. A session retains
// the contracted flow network and the previous maximum flow; when the
// next Analyze cuts a network of the same topology (the same compiled
// profile, or a recompiled one whose contraction came out the same) it
// stages the new capacities as deltas and resumes the solve instead of
// starting cold. Results are bit-for-bit identical with and without a
// session — the session only changes how much work the solve performs.
// Each session belongs to exactly one caller thread at a time (the fleet
// service keeps one per worker slot; the online repartitioner keeps one
// per policy).
class MinCutSession {
 public:
  MinCutSession() = default;

  // Cumulative solver work and warm-start accounting across the
  // session's lifetime.
  const MinCutSolveStats& stats() const { return stats_; }

 private:
  friend class ProfileAnalysisEngine;

  // Cuts `compiled`'s contracted network at `capacities` (one per
  // contracted edge id).
  CutResult Cut(const CompiledProfile& compiled, const std::vector<CapUnits>& capacities);

  IncrementalMinCut incremental_;
  MinCutSolveStats stats_;
};

// Re-entrancy contract: Compile and Analyze are const and keep all working
// state (graphs, flow network, cut) on the stack of the call; the min-cut
// layer underneath likewise operates on per-call state. One engine may
// serve concurrent calls from many threads — the fleet partitioning
// service computes per-cohort cuts in parallel through a single engine
// and a single CompiledProfile. The session arguments concentrate all
// cross-call mutation in the caller-owned MinCutSession, so concurrency is
// preserved as long as a given session is used by one thread at a time.
class ProfileAnalysisEngine {
 public:
  explicit ProfileAnalysisEngine(AnalysisOptions options = {}) : options_(options) {}

  // The network-independent half: constraints (API-derived unless
  // disabled, plus the options' extras), the concrete edge list and the
  // contracted network. Fails on an empty profile.
  Result<CompiledProfile> Compile(const IccProfile& profile) const;

  // Prices `compiled` for `network` and chooses the minimal-communication
  // two-machine distribution, reusing `session` (if not null) to
  // warm-start the cut.
  Result<AnalysisResult> Analyze(const CompiledProfile& compiled, const NetworkProfile& network,
                                 MinCutSession* session = nullptr) const;

  // Compile followed by the overload above.
  Result<AnalysisResult> Analyze(const IccProfile& profile, const NetworkProfile& network,
                                 MinCutSession* session = nullptr) const;

 private:
  AnalysisOptions options_;
};

}  // namespace coign

#endif  // COIGN_SRC_ANALYSIS_ENGINE_H_
