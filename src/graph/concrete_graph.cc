#include "src/graph/concrete_graph.h"

#include <utility>

namespace coign {

double EdgeSeconds(uint64_t message_count, uint64_t message_bytes,
                   const NetworkProfile& network) {
  const double count = static_cast<double>(message_count);
  const double bytes = static_cast<double>(message_bytes);
  return count * network.per_message_seconds + bytes * network.seconds_per_byte;
}

double EdgeSeconds(const AbstractIccGraph::Edge& edge, const NetworkProfile& network) {
  return EdgeSeconds(edge.message_count, edge.message_bytes, network);
}

Result<int> ConcreteGraph::IndexOf(ClassificationId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return NotFoundError("classification not in concrete graph");
  }
  return it->second;
}

double ConcreteGraph::TotalCommunicationSeconds() const {
  double total = 0.0;
  for (const ConcreteEdge& edge : edges_) {
    if (!edge.constraint) {
      total += edge.seconds;
    }
  }
  return total;
}

ConcreteTopology ConcreteTopology::Build(const AbstractIccGraph& abstract,
                                         const LocationConstraints& constraints) {
  ConcreteTopology topology;

  // Dense node numbering: classifications sorted by id, offset by the two
  // terminals.
  topology.node_ids = abstract.profile().SortedClassificationIds();
  for (size_t i = 0; i < topology.node_ids.size(); ++i) {
    topology.index.emplace(topology.node_ids[i], static_cast<int>(i) + 2);
  }

  auto node_of = [&topology](ClassificationId id) -> int {
    if (id == kNoClassification) {
      // The application driver (user, GUI thread) is the client terminal.
      return ConcreteGraph::kClientNode;
    }
    auto it = topology.index.find(id);
    return it == topology.index.end() ? ConcreteGraph::kClientNode : it->second;
  };
  auto add_edge = [&topology](int a, int b, uint64_t count, uint64_t bytes, bool constraint) {
    if (a != b) {
      topology.edges.push_back(UnpricedEdge{a, b, count, bytes, constraint});
    }
  };

  // Communication edges.
  for (const AbstractIccGraph::PairKey& pair : abstract.SortedPairs()) {
    const AbstractIccGraph::Edge& edge = abstract.edges().at(pair);
    const int a = node_of(pair.a);
    const int b = node_of(pair.b);
    add_edge(a, b, edge.message_count, edge.message_bytes, /*constraint=*/false);
    if (edge.MustColocate()) {
      // Non-remotable interface between the endpoints: they cannot be
      // split, whatever the traffic volume.
      add_edge(a, b, 0, 0, /*constraint=*/true);
    }
  }

  // Absolute pins (API analysis + programmer).
  for (const auto& [id, machine] : constraints.absolute()) {
    auto it = topology.index.find(id);
    if (it == topology.index.end()) {
      continue;
    }
    const int terminal =
        (machine == kServerMachine) ? ConcreteGraph::kServerNode : ConcreteGraph::kClientNode;
    add_edge(terminal, it->second, 0, 0, /*constraint=*/true);
  }

  // Pairwise colocation.
  for (const auto& [a, b] : constraints.colocated()) {
    add_edge(node_of(a), node_of(b), 0, 0, /*constraint=*/true);
  }

  return topology;
}

ConcreteGraph ConcreteGraph::Build(const AbstractIccGraph& abstract,
                                   const NetworkProfile& network,
                                   const LocationConstraints& constraints) {
  ConcreteTopology topology = ConcreteTopology::Build(abstract, constraints);
  ConcreteGraph graph;
  graph.node_ids_ = std::move(topology.node_ids);
  graph.index_ = std::move(topology.index);
  graph.edges_.reserve(topology.edges.size());
  for (const UnpricedEdge& edge : topology.edges) {
    const double seconds =
        edge.constraint ? 0.0 : EdgeSeconds(edge.message_count, edge.message_bytes, network);
    graph.edges_.push_back(ConcreteEdge{edge.a, edge.b, seconds, edge.constraint});
  }
  return graph;
}

}  // namespace coign
