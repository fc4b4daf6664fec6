#include "src/graph/icc_graph.h"

#include <algorithm>
#include <utility>

namespace coign {
namespace {

AbstractIccGraph::PairKey Canonical(ClassificationId a, ClassificationId b) {
  if (a > b) {
    std::swap(a, b);
  }
  // kNoClassification is the max id value, so the driver always lands in b.
  return AbstractIccGraph::PairKey{a, b};
}

}  // namespace

AbstractIccGraph AbstractIccGraph::FromProfile(const IccProfile& profile) {
  AbstractIccGraph graph;
  graph.profile_ = &profile;
  for (const auto& [key, summary] : profile.calls()) {
    if (key.src == key.dst) {
      continue;  // Intra-classification calls never cross the wire.
    }
    Edge& edge = graph.edges_[Canonical(key.src, key.dst)];
    edge.message_count += summary.requests.total_count() + summary.replies.total_count();
    edge.message_bytes += summary.requests.total_bytes() + summary.replies.total_bytes();
    edge.calls += summary.call_count();
    edge.non_remotable_calls += summary.non_remotable_calls;
  }
  return graph;
}

std::vector<AbstractIccGraph::PairKey> AbstractIccGraph::SortedPairs() const {
  std::vector<PairKey> pairs;
  pairs.reserve(edges_.size());
  for (const auto& [key, edge] : edges_) {
    pairs.push_back(key);
  }
  std::sort(pairs.begin(), pairs.end(), [](const PairKey& x, const PairKey& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return pairs;
}

}  // namespace coign
