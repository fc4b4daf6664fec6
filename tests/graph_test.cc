#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/com/class_registry.h"
#include "src/graph/concrete_graph.h"
#include "src/graph/constraints.h"
#include "src/graph/distribution.h"
#include "src/graph/icc_graph.h"
#include "src/support/rng.h"

namespace coign {
namespace {

CallKey MakeKey(ClassificationId src, ClassificationId dst, MethodIndex method = 0) {
  CallKey key;
  key.src = src;
  key.dst = dst;
  key.iid = Guid::FromName("iid:IGraphTest");
  key.method = method;
  return key;
}

void AddClassification(IccProfile* profile, ClassificationId id, const std::string& name,
                       uint32_t api = kApiNone, uint64_t instances = 1) {
  ClassificationInfo info;
  info.id = id;
  info.clsid = Guid::FromName("clsid:" + name);
  info.class_name = name;
  info.api_usage = api;
  info.instance_count = instances;
  profile->RecordClassification(info);
}

TEST(DistributionTest, PlacementLookupAndCounts) {
  Distribution d;
  d.placement[0] = kClientMachine;
  d.placement[1] = kServerMachine;
  d.placement[2] = kServerMachine;
  EXPECT_EQ(d.MachineFor(1), kServerMachine);
  EXPECT_EQ(d.MachineFor(42), kClientMachine);  // Default.
  EXPECT_EQ(d.CountOn(kServerMachine), 2u);
  EXPECT_EQ(d.CountOn(kClientMachine), 1u);
  EXPECT_NE(d.ToString().find("2 on server"), std::string::npos);

  const Distribution all_server = EverythingOn(kServerMachine);
  EXPECT_EQ(all_server.MachineFor(7), kServerMachine);
}

// Iteration hands out ids as const even on a mutable placement, so no
// caller can break the sorted-unique order through an iterator.
static_assert(std::is_same_v<decltype((std::declval<FlatPlacement&>().begin()->first)),
                             const ClassificationId&>);

// FlatPlacement against a std::map oracle. Each seed mixes three write
// patterns: dense ascending appends (what the engines and loaders do),
// scattered ids in and out of order (sparse slots, so the dense-id probe
// misses and falls back), and overwrites of ids already placed.
TEST(FlatPlacementTest, MatchesMapOracleOnSeededWrites) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    FlatPlacement placement;
    std::map<ClassificationId, MachineId> oracle;
    std::vector<FlatPlacement::value_type> writes;
    const int64_t span = rng.UniformInt(1, 64);
    const int64_t steps = rng.UniformInt(0, 120);
    ClassificationId next = 0;
    for (int64_t step = 0; step < steps; ++step) {
      ClassificationId id = 0;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          id = next++;
          break;
        case 1:
          id = static_cast<ClassificationId>(rng.UniformInt(0, span));
          break;
        case 2:
          id = oracle.empty() ? 0
                              : std::next(oracle.begin(),
                                          rng.UniformInt(0, static_cast<int64_t>(oracle.size()) - 1))
                                    ->first;
          break;
        default:
          id = kNoClassification - static_cast<ClassificationId>(rng.UniformInt(0, 3));
          break;
      }
      const MachineId machine = static_cast<MachineId>(rng.UniformInt(0, 4));
      placement[id] = machine;
      oracle[id] = machine;
      writes.emplace_back(id, machine);
    }
    const std::string where = "seed " + std::to_string(seed);

    ASSERT_EQ(placement.size(), oracle.size()) << where;
    EXPECT_EQ(placement.empty(), oracle.empty()) << where;
    const std::vector<FlatPlacement::value_type> iterated(placement.begin(), placement.end());
    const std::vector<FlatPlacement::value_type> expected(oracle.begin(), oracle.end());
    EXPECT_EQ(iterated, expected) << where;

    Distribution distribution;
    distribution.placement = placement;
    distribution.default_machine = 9;
    std::vector<ClassificationId> probes;
    for (ClassificationId id = 0; id <= static_cast<ClassificationId>(span) + 2; ++id) {
      probes.push_back(id);
    }
    for (ClassificationId back = 0; back <= 4; ++back) {
      probes.push_back(kNoClassification - back);
    }
    for (const ClassificationId id : probes) {
      const auto it = oracle.find(id);
      const auto found = placement.find(id);
      if (it == oracle.end()) {
        EXPECT_EQ(found, placement.end()) << where << " id " << id;
        EXPECT_THROW((void)placement.at(id), std::out_of_range) << where << " id " << id;
        EXPECT_EQ(distribution.MachineFor(id), 9) << where << " id " << id;
      } else {
        ASSERT_NE(found, placement.end()) << where << " id " << id;
        EXPECT_EQ(found->first, id) << where;
        EXPECT_EQ(found->second, it->second) << where << " id " << id;
        EXPECT_EQ(placement.at(id), it->second) << where << " id " << id;
        EXPECT_EQ(distribution.MachineFor(id), it->second) << where << " id " << id;
      }
    }

    // The bulk loader over the same writes, in order and reversed (the
    // last pair for an id wins), against the oracle built the same way.
    EXPECT_EQ(FlatPlacement::FromEntries(writes), placement) << where;
    std::map<ClassificationId, MachineId> reversed_oracle;
    for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
      reversed_oracle[it->first] = it->second;
    }
    const FlatPlacement reversed = FlatPlacement::FromEntries({writes.rbegin(), writes.rend()});
    EXPECT_EQ(std::vector<FlatPlacement::value_type>(reversed.begin(), reversed.end()),
              std::vector<FlatPlacement::value_type>(reversed_oracle.begin(), reversed_oracle.end()))
        << where;
    EXPECT_EQ(reversed == placement, reversed_oracle == oracle) << where;

    // UpdateMachines visits the pairs in id order and changes only machines.
    FlatPlacement updated = placement;
    std::map<ClassificationId, MachineId> updated_oracle;
    std::vector<ClassificationId> visited;
    updated.UpdateMachines([&](ClassificationId id, MachineId& machine) {
      visited.push_back(id);
      machine = updated_oracle[id] = static_cast<MachineId>((id + machine) % 5);
    });
    std::vector<ClassificationId> oracle_ids;
    for (const auto& [id, machine] : oracle) {
      oracle_ids.push_back(id);
    }
    EXPECT_EQ(visited, oracle_ids) << where;
    EXPECT_EQ(std::vector<FlatPlacement::value_type>(updated.begin(), updated.end()),
              std::vector<FlatPlacement::value_type>(updated_oracle.begin(), updated_oracle.end()))
        << where;

    // == follows the oracle's equality after one more write.
    if (!oracle.empty()) {
      FlatPlacement changed = placement;
      std::map<ClassificationId, MachineId> changed_oracle = oracle;
      const ClassificationId id = oracle.begin()->first;
      changed[id] = changed_oracle[id] = static_cast<MachineId>(rng.UniformInt(0, 4));
      EXPECT_EQ(changed == placement, changed_oracle == oracle) << where;
    }
  }
}

TEST(AbstractIccGraphTest, MergesDirectionsAndMethodsPerPair) {
  IccProfile profile;
  AddClassification(&profile, 0, "A");
  AddClassification(&profile, 1, "B");
  profile.RecordCall(MakeKey(0, 1, 0), 100, 10, true);
  profile.RecordCall(MakeKey(1, 0, 2), 50, 5, true);   // Reverse direction.
  profile.RecordCall(MakeKey(0, 1, 3), 25, 25, false);  // Another method.
  profile.RecordCall(MakeKey(1, 1, 0), 9, 9, true);     // Intra: dropped.

  const AbstractIccGraph graph = AbstractIccGraph::FromProfile(profile);
  EXPECT_EQ(graph.edge_count(), 1u);
  const auto& edge = graph.edges().begin()->second;
  EXPECT_EQ(edge.calls, 3u);
  // Each call contributes request + reply messages.
  EXPECT_EQ(edge.message_count, 6u);
  EXPECT_EQ(edge.message_bytes, 100u + 10 + 50 + 5 + 25 + 25);
  EXPECT_EQ(edge.non_remotable_calls, 1u);
  EXPECT_TRUE(edge.MustColocate());
}

TEST(AbstractIccGraphTest, DriverPairUsesNoClassification) {
  IccProfile profile;
  AddClassification(&profile, 0, "A");
  profile.RecordCall(MakeKey(kNoClassification, 0), 10, 10, true);
  const AbstractIccGraph graph = AbstractIccGraph::FromProfile(profile);
  ASSERT_EQ(graph.SortedPairs().size(), 1u);
  EXPECT_EQ(graph.SortedPairs()[0].a, 0u);
  EXPECT_EQ(graph.SortedPairs()[0].b, kNoClassification);
}

TEST(ConstraintsTest, FromProfileDerivesApiPins) {
  IccProfile profile;
  AddClassification(&profile, 0, "Gui", kApiGui);
  AddClassification(&profile, 1, "Store", kApiStorage);
  AddClassification(&profile, 2, "Free", kApiNone);
  AddClassification(&profile, 3, "Db", kApiOdbc | kApiStorage);
  const LocationConstraints constraints = LocationConstraints::FromProfile(profile);
  ASSERT_NE(constraints.PinOf(0), nullptr);
  EXPECT_EQ(*constraints.PinOf(0), kClientMachine);
  ASSERT_NE(constraints.PinOf(1), nullptr);
  EXPECT_EQ(*constraints.PinOf(1), kServerMachine);
  EXPECT_EQ(constraints.PinOf(2), nullptr);
  EXPECT_EQ(*constraints.PinOf(3), kServerMachine);
}

TEST(ConstraintsTest, ExplicitConstraintsAccumulate) {
  LocationConstraints constraints;
  constraints.PinAbsolute(5, kServerMachine);
  constraints.Colocate(1, 2);
  EXPECT_EQ(*constraints.PinOf(5), kServerMachine);
  ASSERT_EQ(constraints.colocated().size(), 1u);
  EXPECT_EQ(constraints.colocated()[0], (std::pair<ClassificationId, ClassificationId>{1, 2}));
}

TEST(EdgeSecondsTest, AffineInCountAndBytes) {
  AbstractIccGraph::Edge edge;
  edge.message_count = 2;
  edge.message_bytes = 200;
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  EXPECT_NEAR(EdgeSeconds(edge, network), 2 * 1e-3 + 200 * 1e-6, 1e-12);
}

TEST(ConcreteGraphTest, BuildWiresTerminalsClassificationsAndConstraints) {
  IccProfile profile;
  AddClassification(&profile, 0, "Gui", kApiGui, 3);
  AddClassification(&profile, 1, "Store", kApiStorage, 1);
  AddClassification(&profile, 2, "Free", kApiNone, 5);
  profile.RecordCall(MakeKey(kNoClassification, 2), 500, 100, true);  // Driver <-> Free.
  profile.RecordCall(MakeKey(2, 1), 200, 1000, true);                  // Free <-> Store.
  profile.RecordCall(MakeKey(2, 0), 10, 10, false);                    // Non-remotable.

  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const LocationConstraints constraints = LocationConstraints::FromProfile(profile);
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  const ConcreteGraph graph = ConcreteGraph::Build(abstract, network, constraints);

  EXPECT_EQ(graph.node_count(), 5);  // 2 terminals + 3 classifications.
  ASSERT_TRUE(graph.IndexOf(0).ok());
  EXPECT_EQ(graph.ClassificationAt(*graph.IndexOf(0)), 0u);
  EXPECT_FALSE(graph.IndexOf(42).ok());

  int constraint_edges = 0;
  int comm_edges = 0;
  for (const ConcreteEdge& edge : graph.edges()) {
    if (edge.constraint) {
      ++constraint_edges;
    } else {
      ++comm_edges;
      EXPECT_GT(edge.seconds, 0.0);
    }
  }
  // Constraints: gui pin, store pin, and the non-remotable pair.
  EXPECT_EQ(constraint_edges, 3);
  EXPECT_EQ(comm_edges, 3);
  EXPECT_GT(graph.TotalCommunicationSeconds(), 0.0);
}

TEST(ConcreteGraphTest, DriverEdgesAttachToClientTerminal) {
  IccProfile profile;
  AddClassification(&profile, 0, "Free");
  profile.RecordCall(MakeKey(kNoClassification, 0), 100, 100, true);
  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const ConcreteGraph graph =
      ConcreteGraph::Build(abstract, NetworkProfile::Exact(NetworkModel::TenBaseT()),
                           LocationConstraints());
  ASSERT_EQ(graph.edges().size(), 1u);
  const ConcreteEdge& edge = graph.edges()[0];
  EXPECT_TRUE(edge.a == ConcreteGraph::kClientNode || edge.b == ConcreteGraph::kClientNode);
}

}  // namespace
}  // namespace coign
