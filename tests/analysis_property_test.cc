// Property sweeps over randomly generated small profiles.
//
// Optimality: the analysis engine's distribution is *exactly optimal* —
// equal in predicted communication time to the best of all
// constraint-respecting partitions found by brute force. This is the
// paper's claim that the two-way lift-to-front cut is exact, verified end
// to end through the engine (constraints, graph construction, and cut
// together).
//
// Contraction: the production path cuts the constraint-contracted network
// and the relabel-to-front oracle the uncontracted one; on profiles
// dense with pins, colocations and non-remotable calls (including chains
// that join both terminals) the two reports must be equal field for
// field, by exact equality, and so must warm session solves across a
// sequence of networks on one compiled profile.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/analysis/engine.h"
#include "src/analysis/prediction.h"
#include "src/com/class_registry.h"
#include "src/support/rng.h"

namespace coign {
namespace {

struct RandomProfile {
  IccProfile profile;
  std::vector<ClassificationId> free_ids;  // Not pinned by API usage.
};

RandomProfile MakeRandomProfile(Rng& rng) {
  RandomProfile out;
  const int n = static_cast<int>(rng.UniformInt(3, 9));
  for (int i = 0; i < n; ++i) {
    ClassificationInfo info;
    info.id = static_cast<ClassificationId>(i);
    info.clsid = Guid::FromName("clsid:R" + std::to_string(i));
    info.class_name = "R" + std::to_string(i);
    // First classification is GUI (client pin), second storage (server
    // pin), the rest free.
    info.api_usage = i == 0 ? kApiGui : i == 1 ? kApiStorage : kApiNone;
    info.instance_count = 1;
    out.profile.RecordClassification(info);
    if (info.api_usage == kApiNone) {
      out.free_ids.push_back(info.id);
    }
  }
  // Random communication, including some driver edges.
  for (int a = -1; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!rng.Bernoulli(0.5)) {
        continue;
      }
      CallKey key;
      key.src = a < 0 ? kNoClassification : static_cast<ClassificationId>(a);
      key.dst = static_cast<ClassificationId>(b);
      key.iid = Guid::FromName("iid:IRand");
      const int calls = static_cast<int>(rng.UniformInt(1, 20));
      for (int c = 0; c < calls; ++c) {
        out.profile.RecordCall(key, static_cast<uint64_t>(rng.UniformInt(16, 4096)),
                               static_cast<uint64_t>(rng.UniformInt(16, 4096)), true);
      }
    }
  }
  return out;
}

NetworkProfile Net() {
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  return network;
}

class EngineOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOptimalityTest, CutMatchesBruteForceOptimum) {
  Rng rng(GetParam());
  const RandomProfile random = MakeRandomProfile(rng);

  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(random.profile, Net());
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  // Brute force: enumerate all placements of the free classifications,
  // with the GUI pinned client and storage pinned server.
  double best = 1e300;
  const size_t free_count = random.free_ids.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << free_count); ++mask) {
    Distribution candidate;
    candidate.placement[0] = kClientMachine;
    candidate.placement[1] = kServerMachine;
    for (size_t i = 0; i < free_count; ++i) {
      candidate.placement[random.free_ids[i]] =
          (mask >> i) & 1 ? kServerMachine : kClientMachine;
    }
    best = std::min(best,
                    PredictCommunicationSeconds(random.profile, candidate, Net()));
  }

  EXPECT_NEAR(analysis->predicted_comm_seconds, best, best * 1e-9 + 1e-12)
      << "engine cut is not optimal for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOptimalityTest,
                         ::testing::Range(uint64_t{9000}, uint64_t{9024}));

// A profile plus programmer constraints, both random: API pins, extra
// absolute pins, colocations (some naming an unknown id, which binds to
// the client), non-remotable calls, and optionally a colocation chain from
// a client-pinned to a server-pinned classification.
struct ConstrainedProfile {
  IccProfile profile;
  AnalysisOptions options;
};

ConstrainedProfile MakeConstrainedProfile(Rng& rng) {
  ConstrainedProfile out;
  const int n = static_cast<int>(rng.UniformInt(2, 14));
  for (int i = 0; i < n; ++i) {
    ClassificationInfo info;
    info.id = static_cast<ClassificationId>(i);
    info.clsid = Guid::FromName("clsid:C" + std::to_string(i));
    info.class_name = "C" + std::to_string(i);
    const int64_t api = rng.UniformInt(0, 9);
    info.api_usage = api == 0 ? kApiGui : api == 1 ? kApiStorage : kApiNone;
    info.instance_count = static_cast<uint64_t>(rng.UniformInt(1, 5));
    out.profile.RecordClassification(info);
  }
  const auto random_id = [&] { return static_cast<ClassificationId>(rng.UniformInt(0, n - 1)); };
  for (int a = -1; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!rng.Bernoulli(0.4)) {
        continue;
      }
      CallKey key;
      key.src = a < 0 ? kNoClassification : static_cast<ClassificationId>(a);
      key.dst = static_cast<ClassificationId>(b);
      key.iid = Guid::FromName("iid:IConstrained");
      const bool remotable = !rng.Bernoulli(0.1);
      const int calls = static_cast<int>(rng.UniformInt(1, 6));
      for (int c = 0; c < calls; ++c) {
        // Small byte counts make equal-valued edges, and so tied cuts.
        out.profile.RecordCall(key, static_cast<uint64_t>(rng.UniformInt(0, 64)),
                               static_cast<uint64_t>(rng.UniformInt(0, 64)), remotable);
      }
    }
  }
  LocationConstraints& extra = out.options.extra_constraints;
  for (int pins = static_cast<int>(rng.UniformInt(0, 2)); pins > 0; --pins) {
    extra.PinAbsolute(random_id(), rng.Bernoulli(0.5) ? kClientMachine : kServerMachine);
  }
  for (int colocations = static_cast<int>(rng.UniformInt(0, 3)); colocations > 0;
       --colocations) {
    const ClassificationId unknown = static_cast<ClassificationId>(n + 7);
    extra.Colocate(random_id(), rng.Bernoulli(0.1) ? unknown : random_id());
  }
  if (n >= 3 && rng.Bernoulli(0.2)) {
    ClassificationId previous = random_id();
    extra.PinAbsolute(previous, kClientMachine);
    for (int links = static_cast<int>(rng.UniformInt(1, 3)); links > 0; --links) {
      const ClassificationId next = random_id();
      extra.Colocate(previous, next);
      previous = next;
    }
    extra.PinAbsolute(previous, kServerMachine);
  }
  return out;
}

NetworkProfile RandomNetwork(Rng& rng) {
  NetworkProfile network;
  network.per_message_seconds = std::pow(10.0, rng.UniformDouble(-6.0, -1.0));
  network.seconds_per_byte = std::pow(10.0, rng.UniformDouble(-10.0, -5.0));
  return network;
}

// Field-for-field exact equality of two analyses (or of their errors).
void ExpectSameAnalysis(const Result<AnalysisResult>& expected,
                        const Result<AnalysisResult>& actual, const std::string& where) {
  ASSERT_EQ(expected.ok(), actual.ok()) << where;
  if (!expected.ok()) {
    EXPECT_EQ(expected.status(), actual.status()) << where;
    return;
  }
  EXPECT_EQ(expected->cut_value_units, actual->cut_value_units) << where;
  EXPECT_EQ(expected->distribution.placement, actual->distribution.placement) << where;
  EXPECT_EQ(expected->predicted_comm_seconds, actual->predicted_comm_seconds) << where;
  EXPECT_EQ(expected->total_comm_seconds, actual->total_comm_seconds) << where;
  EXPECT_EQ(expected->client_instances, actual->client_instances) << where;
  EXPECT_EQ(expected->server_instances, actual->server_instances) << where;
  EXPECT_EQ(expected->non_remotable_pairs, actual->non_remotable_pairs) << where;
  ASSERT_EQ(expected->cut_edges.size(), actual->cut_edges.size()) << where;
  for (size_t i = 0; i < expected->cut_edges.size(); ++i) {
    EXPECT_EQ(expected->cut_edges[i].client_side, actual->cut_edges[i].client_side) << where;
    EXPECT_EQ(expected->cut_edges[i].server_side, actual->cut_edges[i].server_side) << where;
    EXPECT_EQ(expected->cut_edges[i].seconds, actual->cut_edges[i].seconds) << where;
  }
}

class ContractionEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContractionEquivalenceTest, ContractedCutEqualsTheUncontractedOracle) {
  Rng rng(GetParam());
  const ConstrainedProfile random = MakeConstrainedProfile(rng);
  AnalysisOptions oracle_options = random.options;
  oracle_options.algorithm = CutAlgorithm::kRelabelToFront;
  const ProfileAnalysisEngine engine(random.options);
  const ProfileAnalysisEngine oracle(oracle_options);

  Result<CompiledProfile> compiled = engine.Compile(random.profile);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  MinCutSession session;
  for (int step = 0; step < 6; ++step) {
    const NetworkProfile network = RandomNetwork(rng);
    const std::string where =
        "seed " + std::to_string(GetParam()) + " network " + std::to_string(step);
    const Result<AnalysisResult> expected = oracle.Analyze(random.profile, network);
    ExpectSameAnalysis(expected, engine.Analyze(random.profile, network), where + " cold");
    ExpectSameAnalysis(expected, engine.Analyze(*compiled, network, &session),
                       where + " warm");
  }
}

TEST(ContractionSweepTest, CoversUnsatisfiableAndFeasibleProfiles) {
  // The seeds below must exercise both outcomes, or the sweep proves less
  // than it claims.
  int unsatisfiable = 0;
  int feasible = 0;
  for (uint64_t seed = 7000; seed < 7300; ++seed) {
    Rng rng(seed);
    const ConstrainedProfile random = MakeConstrainedProfile(rng);
    Result<CompiledProfile> compiled =
        ProfileAnalysisEngine(random.options).Compile(random.profile);
    ASSERT_TRUE(compiled.ok());
    ++(compiled->satisfiable() ? feasible : unsatisfiable);
  }
  EXPECT_GE(unsatisfiable, 20);
  EXPECT_GE(feasible, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractionEquivalenceTest,
                         ::testing::Range(uint64_t{7000}, uint64_t{7300}));

}  // namespace
}  // namespace coign
