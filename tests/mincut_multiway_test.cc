#include "src/mincut/multiway.h"

#include <gtest/gtest.h>

#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"

namespace coign {
namespace {

CapUnits AssignmentWeight(const EdgeList& edges, const std::vector<int>& assignment) {
  CapUnits weight = 0;
  for (const auto& [a, b, w] : edges) {
    if (assignment[static_cast<size_t>(a)] != assignment[static_cast<size_t>(b)]) {
      weight = SatAdd(weight, w);
    }
  }
  return weight;
}

TEST(MultiwayCutTest, TwoTerminalsMatchesExactMinCutStructure) {
  // Triangle-ish: node 2 clearly belongs with terminal 1.
  EdgeList edges = {{0, 2, 10}, {2, 1, 50}};
  const MultiwayCutResult result = MultiwayCutIsolation(3, edges, {0, 1});
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);
  EXPECT_EQ(result.assignment[2], 1);
  EXPECT_EQ(result.total_weight, 10);
}

TEST(MultiwayCutTest, ThreeClusters) {
  // Three tight clusters, one terminal each, thin inter-cluster links.
  // Nodes: 0-2 cluster A, 3-5 cluster B, 6-8 cluster C. Weights in units
  // (the old fixture scaled by 10 to stay integral).
  EdgeList edges;
  auto clique = [&edges](int base) {
    edges.emplace_back(base, base + 1, 100);
    edges.emplace_back(base + 1, base + 2, 100);
    edges.emplace_back(base, base + 2, 100);
  };
  clique(0);
  clique(3);
  clique(6);
  edges.emplace_back(2, 3, 5);
  edges.emplace_back(5, 6, 5);
  edges.emplace_back(8, 0, 5);

  const MultiwayCutResult result = MultiwayCutIsolation(9, edges, {0, 3, 6});
  // Each cluster stays whole with its terminal.
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(v)], 0) << v;
  }
  for (int v = 3; v < 6; ++v) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(v)], 1) << v;
  }
  for (int v = 6; v < 9; ++v) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(v)], 2) << v;
  }
  EXPECT_EQ(result.total_weight, 15);
  EXPECT_EQ(result.total_weight, AssignmentWeight(edges, result.assignment));
}

TEST(MultiwayCutTest, TerminalsAlwaysKeepTheirOwnSide) {
  EdgeList edges = {{0, 1, 100}, {1, 2, 100}, {0, 2, 100}};
  const MultiwayCutResult result = MultiwayCutIsolation(3, edges, {0, 1, 2});
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);
  EXPECT_EQ(result.assignment[2], 2);
}

TEST(MultiwayCutTest, IsolatedNodesLandWithDiscardedTerminal) {
  // Node 3 has no edges; the heuristic leaves it with the terminal whose
  // isolating cut was discarded. Whatever the side, the weight is stable.
  EdgeList edges = {{0, 1, 1}};
  const MultiwayCutResult result = MultiwayCutIsolation(4, edges, {0, 1, 2});
  EXPECT_EQ(result.assignment.size(), 4u);
  EXPECT_EQ(result.total_weight, AssignmentWeight(edges, result.assignment));
}

TEST(MultiwayCutTest, CrossingSentinelEdgeSaturatesTotalWeight) {
  // Terminals 0 and 1 pinned together by a sentinel edge: the heuristic
  // must still terminate and report exactly kInfiniteCapacity so the
  // analysis layer can detect the unsatisfiable pin with ==.
  EdgeList edges = {{0, 1, kInfiniteCapacity}, {0, 2, 3}, {2, 1, 3}};
  const MultiwayCutResult result = MultiwayCutIsolation(3, edges, {0, 1});
  EXPECT_EQ(result.total_weight, kInfiniteCapacity);
}

// Property: the isolation heuristic is within 2(1 - 1/k) of any partition
// we can find by brute force on small random instances. Cut weights are
// exact integers; only the approximation ratio itself needs doubles.
class MultiwayPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiwayPropertyTest, WithinApproximationBoundOfBruteForce) {
  Rng rng(GetParam());
  const int n = 7;
  const std::vector<int> terminals = {0, 1, 2};
  EdgeList edges;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(0.6)) {
        edges.emplace_back(a, b, rng.UniformInt(1, 5'000'000));
      }
    }
  }
  const MultiwayCutResult result = MultiwayCutIsolation(n, edges, terminals);
  EXPECT_EQ(result.total_weight, AssignmentWeight(edges, result.assignment));

  // Brute force over the 3^(n-3) assignments of free nodes.
  CapUnits best = kInfiniteCapacity;
  std::vector<int> assignment(n);
  assignment[0] = 0;
  assignment[1] = 1;
  assignment[2] = 2;
  const int free_nodes = n - 3;
  int combos = 1;
  for (int i = 0; i < free_nodes; ++i) {
    combos *= 3;
  }
  for (int mask = 0; mask < combos; ++mask) {
    int m = mask;
    for (int i = 0; i < free_nodes; ++i) {
      assignment[static_cast<size_t>(3 + i)] = m % 3;
      m /= 3;
    }
    best = std::min(best, AssignmentWeight(edges, assignment));
  }
  const double bound = 2.0 * (1.0 - 1.0 / 3.0);
  EXPECT_LE(static_cast<double>(result.total_weight),
            static_cast<double>(best) * bound);
  EXPECT_GE(result.total_weight, best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiwayPropertyTest,
                         ::testing::Range(uint64_t{2000}, uint64_t{2012}));

// The isolation heuristic rebuilt on the lift-to-front oracle: the same
// isolating networks, discard rule and union as MultiwayCutIsolation, but
// every isolating cut comes from MinCutRelabelToFront.
MultiwayCutResult IsolationByRelabelToFront(int node_count, const EdgeList& edges,
                                            const std::vector<int>& terminals) {
  const size_t k = terminals.size();
  std::vector<CutResult> cuts;
  for (size_t t = 0; t < k; ++t) {
    CompactFlowNetwork network(node_count + 1);
    for (const auto& [a, b, weight] : edges) {
      network.AddEdge(a, b, weight);
    }
    for (size_t other = 0; other < k; ++other) {
      if (other != t) {
        network.AddArc(terminals[other], node_count, kInfiniteCapacity);
      }
    }
    cuts.push_back(MinCutRelabelToFront(network, terminals[t], node_count));
  }
  size_t discarded = 0;
  for (size_t t = 1; t < k; ++t) {
    if (cuts[t].cut_value > cuts[discarded].cut_value) {
      discarded = t;
    }
  }
  MultiwayCutResult result;
  result.assignment.assign(static_cast<size_t>(node_count), static_cast<int>(discarded));
  for (size_t t = 0; t < k; ++t) {
    if (t == discarded) {
      continue;
    }
    for (int node = 0; node < node_count; ++node) {
      if (cuts[t].in_source_side[static_cast<size_t>(node)]) {
        result.assignment[static_cast<size_t>(node)] = static_cast<int>(t);
      }
    }
  }
  for (size_t t = 0; t < k; ++t) {
    result.assignment[static_cast<size_t>(terminals[t])] = static_cast<int>(t);
  }
  result.total_weight = AssignmentWeight(edges, result.assignment);
  return result;
}

// Seeded random graphs in three families: general weights, tied cuts
// (weights 1-3, so many equal minimum cuts), and sentinel edges (pins of
// free nodes to terminals plus colocation pairs, as AnalyzeMultiway emits
// them). The production path must reproduce the oracle isolation exactly.
// An unsatisfiable instance (total weight at the sentinel) only has to
// agree on the total: its saturated "flows" are not maximum flows, so the
// unique-minimal-cut argument that pins the partition does not apply, and
// AnalyzeMultiway rejects such a cut before using its assignment.
TEST(MultiwayCutTest, MatchesIsolationBuiltFromRelabelToFront) {
  int sentinel_feasible = 0;
  int infeasible = 0;
  for (uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(0x3a11 + seed);
    const int family = static_cast<int>(seed % 3);
    const int k = static_cast<int>(rng.UniformInt(2, 4));
    const int n = k + static_cast<int>(rng.UniformInt(1, 12));
    std::vector<int> terminals;
    for (int t = 0; t < k; ++t) {
      terminals.push_back(t);
    }
    EdgeList edges;
    bool has_sentinel = false;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (!rng.Bernoulli(0.4)) {
          continue;
        }
        const CapUnits weight =
            family == 1 ? rng.UniformInt(1, 3) : rng.UniformInt(1, 50'000'000);
        edges.emplace_back(a, b, weight);
        if (family == 2 && a >= k && rng.Bernoulli(0.15)) {
          edges.emplace_back(a, b, kInfiniteCapacity);  // Colocation pair.
          has_sentinel = true;
        }
      }
    }
    for (int v = k; v < n && family == 2; ++v) {
      if (rng.Bernoulli(0.25)) {
        const int pin = static_cast<int>(rng.UniformInt(0, k - 1));
        edges.emplace_back(pin, v, kInfiniteCapacity);
        has_sentinel = true;
      }
    }

    const MultiwayCutResult production = MultiwayCutIsolation(n, edges, terminals);
    const MultiwayCutResult oracle = IsolationByRelabelToFront(n, edges, terminals);
    EXPECT_EQ(production.total_weight, oracle.total_weight) << "seed " << seed;
    if (oracle.total_weight == kInfiniteCapacity) {
      ++infeasible;
      continue;
    }
    EXPECT_EQ(production.assignment, oracle.assignment) << "seed " << seed;
    sentinel_feasible += has_sentinel ? 1 : 0;
  }
  // Both sentinel regimes must actually occur, or the hard cases went
  // untested.
  EXPECT_GT(sentinel_feasible, 20);
  EXPECT_GT(infeasible, 5);
}

}  // namespace
}  // namespace coign
