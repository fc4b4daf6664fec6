#include "src/analysis/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/mincut/edmonds_karp.h"
#include "src/mincut/relabel_to_front.h"

namespace coign {
namespace {

Status Unsatisfiable() {
  return FailedPreconditionError(
      "constraints are unsatisfiable: a constraint edge crosses every cut");
}

int FindRoot(std::vector<int>& parent, int node) {
  while (parent[static_cast<size_t>(node)] != node) {
    int& up = parent[static_cast<size_t>(node)];
    up = parent[static_cast<size_t>(up)];  // Path halving.
    node = up;
  }
  return node;
}

}  // namespace

CutResult MinCutSession::Cut(const CompiledProfile& compiled,
                             const std::vector<CapUnits>& capacities) {
  if (!incremental_.has_network() || !incremental_.network().SameTopology(compiled.network())) {
    incremental_.Reset(compiled.network(), ConcreteGraph::kClientNode,
                       ConcreteGraph::kServerNode);
  }
  // Only capacities that moved are staged; a retained flow is repaired
  // against them and the solve resumes from it.
  for (size_t id = 0; id < capacities.size(); ++id) {
    incremental_.SetEdgeCapacity(static_cast<int>(id), capacities[id]);
  }
  CutResult cut = incremental_.Solve();
  stats_.Accumulate(incremental_.last_stats());
  return cut;
}

Result<CompiledProfile> ProfileAnalysisEngine::Compile(const IccProfile& profile) const {
  if (profile.empty()) {
    return FailedPreconditionError("cannot analyze an empty profile");
  }

  // Constraints: static API analysis + programmer-supplied extras.
  LocationConstraints constraints = options_.derive_api_constraints
                                        ? LocationConstraints::FromProfile(profile)
                                        : LocationConstraints();
  for (const auto& [id, machine] : options_.extra_constraints.absolute()) {
    constraints.PinAbsolute(id, machine);
  }
  for (const auto& [a, b] : options_.extra_constraints.colocated()) {
    constraints.Colocate(a, b);
  }

  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  ConcreteTopology topology = ConcreteTopology::Build(abstract, constraints);

  CompiledProfile compiled;
  compiled.node_ids_ = std::move(topology.node_ids);
  compiled.edges_ = std::move(topology.edges);
  compiled.instances_.reserve(compiled.node_ids_.size());
  for (const ClassificationId id : compiled.node_ids_) {
    const ClassificationInfo* info = profile.FindClassification(id);
    compiled.instances_.push_back(info != nullptr ? info->instance_count : 0);
  }
  for (const auto& [pair, edge] : abstract.edges()) {
    if (edge.MustColocate()) {
      ++compiled.non_remotable_pairs_;
    }
  }

  // Contraction: merge the endpoints of every constraint edge.
  const int n = compiled.node_count();
  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  for (const UnpricedEdge& edge : compiled.edges_) {
    if (edge.constraint) {
      parent[static_cast<size_t>(FindRoot(parent, edge.a))] = FindRoot(parent, edge.b);
    }
  }
  const int client_root = FindRoot(parent, ConcreteGraph::kClientNode);
  const int server_root = FindRoot(parent, ConcreteGraph::kServerNode);
  if (client_root == server_root) {
    compiled.satisfiable_ = false;
    return compiled;
  }

  // Groups are numbered source (0), sink (1), then by first member.
  std::vector<int> group_of_root(static_cast<size_t>(n), -1);
  group_of_root[static_cast<size_t>(client_root)] = ConcreteGraph::kClientNode;
  group_of_root[static_cast<size_t>(server_root)] = ConcreteGraph::kServerNode;
  int groups = 2;
  compiled.group_.resize(static_cast<size_t>(n));
  for (int node = 0; node < n; ++node) {
    int& group = group_of_root[static_cast<size_t>(FindRoot(parent, node))];
    if (group < 0) {
      group = groups++;
    }
    compiled.group_[static_cast<size_t>(node)] = group;
  }

  // Communication edges between groups, in concrete edge order; edges
  // inside a group can never be cut and are dropped.
  compiled.network_ = CompactFlowNetwork(groups);
  compiled.network_edge_.assign(compiled.edges_.size(), -1);
  for (size_t i = 0; i < compiled.edges_.size(); ++i) {
    const UnpricedEdge& edge = compiled.edges_[i];
    const int a = compiled.group_[static_cast<size_t>(edge.a)];
    const int b = compiled.group_[static_cast<size_t>(edge.b)];
    if (!edge.constraint && a != b) {
      compiled.network_edge_[i] = compiled.network_.AddEdge(a, b, 0);
    }
  }
  compiled.network_.Finalize();
  return compiled;
}

Result<AnalysisResult> ProfileAnalysisEngine::Analyze(const IccProfile& profile,
                                                      const NetworkProfile& network,
                                                      MinCutSession* session) const {
  Result<CompiledProfile> compiled = Compile(profile);
  if (!compiled.ok()) {
    return compiled.status();
  }
  return Analyze(*compiled, network, session);
}

Result<AnalysisResult> ProfileAnalysisEngine::Analyze(const CompiledProfile& compiled,
                                                      const NetworkProfile& network,
                                                      MinCutSession* session) const {
  const std::vector<UnpricedEdge>& edges = compiled.edges_;
  std::vector<double> seconds(edges.size(), 0.0);
  for (size_t i = 0; i < edges.size(); ++i) {
    if (!edges[i].constraint) {
      seconds[i] = EdgeSeconds(edges[i].message_count, edges[i].message_bytes, network);
    }
  }

  // The quantization boundary: predicted seconds become integer CapUnits
  // here, exactly once per edge (rounding rule and error bound documented
  // at SecondsToCapUnits). Everything below the boundary — all cut
  // algorithms, the cut value, infeasibility detection — is exact 64-bit
  // arithmetic; everything above (prediction, reports) stays in seconds.
  CutResult cut;
  std::vector<bool> on_client;  // Per dense node.
  if (options_.algorithm == CutAlgorithm::kPushRelabel) {
    // Production path: the contracted network. A caller-provided session
    // warm-starts across calls; without one the solve is cold.
    if (!compiled.satisfiable_) {
      return Unsatisfiable();
    }
    std::vector<CapUnits> capacities(static_cast<size_t>(compiled.network_.edge_count()));
    for (size_t i = 0; i < edges.size(); ++i) {
      const int id = compiled.network_edge_[i];
      if (id >= 0) {
        capacities[static_cast<size_t>(id)] = SecondsToCapUnits(seconds[i]);
      }
    }
    MinCutSession local_session;
    cut = (session != nullptr ? session : &local_session)->Cut(compiled, capacities);
    on_client.resize(static_cast<size_t>(compiled.node_count()));
    for (size_t node = 0; node < on_client.size(); ++node) {
      on_client[node] = cut.in_source_side[static_cast<size_t>(compiled.group_[node])];
    }
  } else {
    // The oracles cut the uncontracted network: one edge per concrete
    // edge, constraints as sentinels.
    CompactFlowNetwork flow(compiled.node_count());
    for (size_t i = 0; i < edges.size(); ++i) {
      flow.AddEdge(edges[i].a, edges[i].b,
                   edges[i].constraint ? kInfiniteCapacity : SecondsToCapUnits(seconds[i]));
    }
    flow.Finalize();
    cut = options_.algorithm == CutAlgorithm::kRelabelToFront
              ? MinCutRelabelToFront(flow, ConcreteGraph::kClientNode,
                                     ConcreteGraph::kServerNode)
              : MinCutEdmondsKarp(flow, ConcreteGraph::kClientNode, ConcreteGraph::kServerNode);
    on_client = std::move(cut.in_source_side);
  }

  if (cut.cut_value == kInfiniteCapacity) {
    return Unsatisfiable();
  }

  AnalysisResult result;
  result.cut_value_units = cut.cut_value;
  result.non_remotable_pairs = compiled.non_remotable_pairs_;

  // Build the classification → machine map from the cut sides; nodes
  // ascend by id, so every write appends.
  for (int node = 2; node < compiled.node_count(); ++node) {
    const bool client = on_client[static_cast<size_t>(node)];
    result.distribution.placement[compiled.ClassificationAt(node)] =
        client ? kClientMachine : kServerMachine;
    const uint64_t instances = compiled.instances_[static_cast<size_t>(node - 2)];
    if (client) {
      ++result.client_classifications;
      result.client_instances += instances;
    } else {
      ++result.server_classifications;
      result.server_instances += instances;
    }
  }
  result.distribution.default_machine = kClientMachine;

  // Total and crossing communication, in concrete edge order (the flow
  // value is equal, but this also yields the per-edge report).
  for (size_t i = 0; i < edges.size(); ++i) {
    const UnpricedEdge& edge = edges[i];
    if (edge.constraint) {
      continue;
    }
    result.total_comm_seconds += seconds[i];
    const bool a_client = on_client[static_cast<size_t>(edge.a)];
    if (a_client == on_client[static_cast<size_t>(edge.b)]) {
      continue;
    }
    result.predicted_comm_seconds += seconds[i];
    const int client_node = a_client ? edge.a : edge.b;
    const int server_node = a_client ? edge.b : edge.a;
    CutEdgeReport report;
    report.client_side =
        client_node >= 2 ? compiled.ClassificationAt(client_node) : kNoClassification;
    report.server_side =
        server_node >= 2 ? compiled.ClassificationAt(server_node) : kNoClassification;
    report.seconds = seconds[i];
    result.cut_edges.push_back(report);
  }
  std::sort(result.cut_edges.begin(), result.cut_edges.end(),
            [](const CutEdgeReport& x, const CutEdgeReport& y) {
              return x.seconds > y.seconds;
            });
  return result;
}

}  // namespace coign
