// Analyze, one layer at a time.
//
// The traced run breaks ProfileAnalysisEngine::Analyze down by calling its
// steps through their own public functions, in Analyze's order:
// LocationConstraints::FromProfile, AbstractIccGraph::FromProfile,
// ConcreteGraph::Build, then a CompactFlowNetwork + IncrementalMinCut
// solve. Each step gets a span. The resulting cut must equal Analyze's;
// SameCut checks it.

#ifndef COIGN_PERFBENCH_SRC_LAYERS_H_
#define COIGN_PERFBENCH_SRC_LAYERS_H_

#include <vector>

#include "src/analysis/engine.h"
#include "src/graph/concrete_graph.h"
#include "src/mincut/incremental.h"

namespace perfbench {

struct LayerCut {
  coign::CutResult cut;
  // Dense node index -> classification (nodes >= 2), for SameCut.
  std::vector<coign::ClassificationId> classifications;
  int nodes = 0;
  int edges = 0;
  coign::MinCutSolveStats stats;
};

// A cold solve on a fresh network, under an "analysis.layers" span.
LayerCut AnalyzeByLayer(const coign::IccProfile& profile, const coign::NetworkProfile& network);

// True when the layer-by-layer cut has Analyze's exact value and sides.
bool SameCut(const LayerCut& layered, const coign::AnalysisResult& analyzed);

}  // namespace perfbench

#endif  // COIGN_PERFBENCH_SRC_LAYERS_H_
