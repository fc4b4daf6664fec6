// The abstract inter-component communication graph (paper §2).
//
// "The profile analysis engine combines component communication profiles
// and component location constraints to create an abstract ICC graph of the
// application." Abstract means network-independent: edges carry message
// counts and bytes, not seconds. Nodes are instance
// classifications; the application driver (GUI thread, the user) is the
// pseudo-node kDriverNode and always lives on the client.

#ifndef COIGN_SRC_GRAPH_ICC_GRAPH_H_
#define COIGN_SRC_GRAPH_ICC_GRAPH_H_

#include <unordered_map>
#include <vector>

#include "src/profile/icc_profile.h"

namespace coign {

class AbstractIccGraph {
 public:
  // Undirected pair key; the driver end uses kNoClassification.
  struct PairKey {
    ClassificationId a = kNoClassification;
    ClassificationId b = kNoClassification;
    friend bool operator==(const PairKey&, const PairKey&) = default;
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const {
      return static_cast<size_t>(k.a) * 0x9e3779b97f4a7c15ull + k.b;
    }
  };

  struct Edge {
    // One-way messages exchanged between the endpoints (each call
    // contributes its request and its reply), and their total bytes. The
    // two totals are all that pricing an edge needs (EdgeSeconds).
    uint64_t message_count = 0;
    uint64_t message_bytes = 0;
    uint64_t calls = 0;
    // Calls on this pair that crossed a non-remotable interface or carried
    // opaque parameters: the endpoints must be colocated.
    uint64_t non_remotable_calls = 0;

    bool MustColocate() const { return non_remotable_calls > 0; }
  };

  static AbstractIccGraph FromProfile(const IccProfile& profile);

  const std::unordered_map<PairKey, Edge, PairKeyHash>& edges() const { return edges_; }
  const IccProfile& profile() const { return *profile_; }

  // Deterministic edge ordering for reports and tests.
  std::vector<PairKey> SortedPairs() const;

  size_t node_count() const { return profile_->classifications().size(); }
  size_t edge_count() const { return edges_.size(); }

 private:
  std::unordered_map<PairKey, Edge, PairKeyHash> edges_;
  const IccProfile* profile_ = nullptr;
};

}  // namespace coign

#endif  // COIGN_SRC_GRAPH_ICC_GRAPH_H_
