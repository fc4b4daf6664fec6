#include "perfbench/src/layers.h"

#include <optional>
#include <utility>

#include "perfbench/src/spans.h"
#include "src/graph/constraints.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/compact_flow_network.h"

namespace perfbench {
namespace {

// The engine's capacity rule: constraint edges are un-cuttable, the rest
// are quantized once at SecondsToCapUnits.
coign::CapUnits Capacity(const coign::ConcreteEdge& edge) {
  return edge.constraint ? coign::kInfiniteCapacity : coign::SecondsToCapUnits(edge.seconds);
}

}  // namespace

LayerCut AnalyzeByLayer(const coign::IccProfile& profile, const coign::NetworkProfile& network) {
  // What analysis.self_ms subtracts from Analyze.
  ScopedSpan whole("analysis.layers");
  coign::LocationConstraints constraints;
  {
    ScopedSpan span("graph.constraints");
    constraints = coign::LocationConstraints::FromProfile(profile);
  }
  std::optional<coign::AbstractIccGraph> abstract;
  {
    ScopedSpan span("graph.abstract");
    abstract.emplace(coign::AbstractIccGraph::FromProfile(profile));
  }
  std::optional<coign::ConcreteGraph> concrete;
  {
    ScopedSpan span("graph.concrete");
    concrete.emplace(coign::ConcreteGraph::Build(*abstract, network, constraints));
  }

  LayerCut out;
  out.nodes = concrete->node_count();
  out.edges = static_cast<int>(concrete->edges().size());
  out.classifications = concrete->classifications();
  coign::IncrementalMinCut cut;
  {
    ScopedSpan span("mincut.csr_build");
    coign::CompactFlowNetwork flow(concrete->node_count());
    for (const coign::ConcreteEdge& edge : concrete->edges()) {
      flow.AddEdge(edge.a, edge.b, Capacity(edge));
    }
    flow.Finalize();
    cut.Reset(std::move(flow), coign::ConcreteGraph::kClientNode,
              coign::ConcreteGraph::kServerNode);
  }
  {
    ScopedSpan span("mincut.solve");
    out.cut = cut.Solve();
  }
  out.stats = cut.last_stats();
  return out;
}

bool SameCut(const LayerCut& layered, const coign::AnalysisResult& analyzed) {
  if (layered.cut.cut_value != analyzed.cut_value_units) {
    return false;
  }
  if (layered.classifications.size() != analyzed.distribution.placement.size()) {
    return false;
  }
  for (size_t i = 0; i < layered.classifications.size(); ++i) {
    const bool on_client = layered.cut.in_source_side[i + 2];
    const coign::MachineId expected = on_client ? coign::kClientMachine : coign::kServerMachine;
    if (analyzed.distribution.MachineFor(layered.classifications[i]) != expected) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
