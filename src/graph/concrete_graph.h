// The concrete communication-time graph (paper §2).
//
// "The abstract ICC graph is combined with a network profile to create a
// concrete graph of potential communication time on the network." Nodes 0
// and 1 are the client and server terminals; classifications occupy dense
// indices from 2. Constraint edges (API pins, programmer pins, colocation,
// non-remotable interfaces) carry `constraint = true` and no time of their
// own; the analysis engine maps them to the min-cut layer's un-cuttable
// sentinel capacity so no minimum cut can violate them.

#ifndef COIGN_SRC_GRAPH_CONCRETE_GRAPH_H_
#define COIGN_SRC_GRAPH_CONCRETE_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/graph/constraints.h"
#include "src/graph/icc_graph.h"
#include "src/net/network_profiler.h"
#include "src/support/status.h"

namespace coign {

struct ConcreteEdge {
  int a = 0;
  int b = 0;
  double seconds = 0.0;   // Predicted communication time if a and b split.
                          // Always 0 on constraint edges (flag is authoritative).
  bool constraint = false;  // True for un-cuttable constraint edges.
};

// A concrete edge before pricing: the network-independent half of a
// ConcreteEdge. Communication edges carry their abstract edge's two
// totals; constraint edges carry zeros.
struct UnpricedEdge {
  int a = 0;
  int b = 0;
  uint64_t message_count = 0;
  uint64_t message_bytes = 0;
  bool constraint = false;
};

// The network-independent half of ConcreteGraph::Build: the dense node
// numbering and every edge, unpriced, in Build's order. Build prices
// exactly these edges; the analysis engine compiles them once per profile
// and prices them once per network.
struct ConcreteTopology {
  std::vector<ClassificationId> node_ids;  // Dense index - 2 → classification.
  std::unordered_map<ClassificationId, int> index;
  std::vector<UnpricedEdge> edges;

  static ConcreteTopology Build(const AbstractIccGraph& abstract,
                                const LocationConstraints& constraints);
};

class ConcreteGraph {
 public:
  static constexpr int kClientNode = 0;
  static constexpr int kServerNode = 1;

  // Builds the concrete graph from the abstract graph, a fitted network
  // profile, and location constraints.
  static ConcreteGraph Build(const AbstractIccGraph& abstract, const NetworkProfile& network,
                             const LocationConstraints& constraints);

  int node_count() const { return static_cast<int>(node_ids_.size()) + 2; }
  const std::vector<ConcreteEdge>& edges() const { return edges_; }

  // Classification at a dense node index (>= 2).
  ClassificationId ClassificationAt(int node) const { return node_ids_[node - 2]; }
  // Dense index of a classification; error if unknown.
  Result<int> IndexOf(ClassificationId id) const;

  // All classification ids in dense order.
  const std::vector<ClassificationId>& classifications() const { return node_ids_; }

  // Sum of non-constraint edge seconds — total potential communication time
  // if everything were split (an upper bound used in reports).
  double TotalCommunicationSeconds() const;

 private:
  std::vector<ClassificationId> node_ids_;  // Dense index - 2 → classification.
  std::unordered_map<ClassificationId, int> index_;
  std::vector<ConcreteEdge> edges_;
};

// Predicted communication seconds of one abstract edge under a network
// profile: count * per-message + bytes * per-byte (exact under the affine
// model because histograms preserve totals).
double EdgeSeconds(uint64_t message_count, uint64_t message_bytes, const NetworkProfile& network);
double EdgeSeconds(const AbstractIccGraph::Edge& edge, const NetworkProfile& network);

}  // namespace coign

#endif  // COIGN_SRC_GRAPH_CONCRETE_GRAPH_H_
