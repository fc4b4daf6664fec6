#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/prediction.h"
#include "src/com/class_registry.h"
#include "src/fleet/cohort.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/plan_cache.h"
#include "src/fleet/service.h"
#include "src/fleet/thread_pool.h"
#include "src/sim/fleet_population.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

// The canonical analysis shape: Gui (pinned client) <-> Worker <-> Store
// (pinned server); Worker follows the heavier edge, which flips as the
// network's relative costs move — so different cohorts really can get
// different cuts.
IccProfile TestProfile(uint64_t gui_bytes = 200, uint64_t store_bytes = 100000) {
  IccProfile profile;
  const auto add = [&](ClassificationId id, const std::string& name, uint32_t api,
                       uint64_t instances) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:" + name);
    info.class_name = name;
    info.api_usage = api;
    info.instance_count = instances;
    profile.RecordClassification(info);
  };
  add(0, "Gui", kApiGui, 2);
  add(1, "Worker", kApiNone, 4);
  add(2, "Store", kApiStorage, 1);
  CallKey gui_worker;
  gui_worker.src = 0;
  gui_worker.dst = 1;
  gui_worker.iid = Guid::FromName("iid:IFleetTest");
  CallKey worker_store = gui_worker;
  worker_store.src = 1;
  worker_store.dst = 2;
  profile.RecordCall(gui_worker, gui_bytes, 64, true);
  profile.RecordCall(worker_store, store_bytes, 64, true);
  profile.RecordCompute(1, 0.25);
  return profile;
}

std::vector<FleetClient> TestFleet(int clients, uint64_t seed = 42) {
  FleetPopulationOptions options;
  options.client_count = clients;
  return GenerateFleet(options, seed);
}

TEST(CohortTest, BucketCenterLandsInItsOwnBucket) {
  const CohortingOptions options;
  for (const NetworkModel& model :
       {NetworkModel::Isdn(), NetworkModel::TenBaseT(), NetworkModel::San()}) {
    const CohortKey key = BucketOf(model, options);
    const NetworkModel center = BucketCenter(key, options);
    EXPECT_EQ(BucketOf(center, options), key) << model.name;
  }
}

TEST(CohortTest, NearbyClientsShareABucketDistantOnesDoNot) {
  const CohortingOptions options;
  const NetworkModel base = NetworkModel::TenBaseT();
  // 10^(1/8) per bucket: a 1% perturbation stays put (away from an edge, as
  // the preset happens to sit), a 10x shift moves a full decade of buckets.
  EXPECT_EQ(BucketOf(base, options), BucketOf(base.Scaled(1.01, 1.0), options));
  const CohortKey shifted = BucketOf(base.Scaled(10.0, 0.1), options);
  EXPECT_EQ(shifted.latency_bucket, BucketOf(base, options).latency_bucket + 8);
  EXPECT_EQ(shifted.bandwidth_bucket, BucketOf(base, options).bandwidth_bucket - 8);
}

TEST(CohortTest, BuildCohortsPartitionsTheFleetInGridOrder) {
  const std::vector<FleetClient> fleet = TestFleet(200);
  const CohortingOptions options;
  const std::vector<Cohort> cohorts = BuildCohorts(fleet, options);
  ASSERT_FALSE(cohorts.empty());

  std::set<uint32_t> seen;
  for (size_t i = 0; i < cohorts.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(cohorts[i - 1].key < cohorts[i].key);
    }
    EXPECT_EQ(BucketOf(cohorts[i].representative, options), cohorts[i].key);
    for (uint32_t member : cohorts[i].members) {
      EXPECT_EQ(BucketOf(fleet[member].network, options), cohorts[i].key);
      EXPECT_TRUE(seen.insert(member).second) << "client in two cohorts";
    }
  }
  EXPECT_EQ(seen.size(), fleet.size());
}

// The grouping BuildCohorts must reproduce: a std::map from key to
// members, which iterates in grid order and appends in fleet order.
std::vector<Cohort> ReferenceCohorts(const std::vector<FleetClient>& fleet,
                                     const CohortingOptions& options) {
  std::map<CohortKey, std::vector<uint32_t>> buckets;
  for (const FleetClient& client : fleet) {
    buckets[BucketOf(client, options)].push_back(client.id);
  }
  std::vector<Cohort> cohorts;
  for (auto& [key, members] : buckets) {
    Cohort cohort;
    cohort.key = key;
    cohort.representative = BucketCenter(key, options);
    cohort.representative_drop = BucketDropCenter(key.loss_bucket, options);
    cohort.members = std::move(members);
    cohorts.push_back(std::move(cohort));
  }
  return cohorts;
}

void ExpectSameCohorts(const std::vector<Cohort>& actual, const std::vector<Cohort>& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].key, expected[i].key) << context << " cohort " << i;
    EXPECT_EQ(actual[i].representative.name, expected[i].representative.name) << context;
    EXPECT_EQ(actual[i].representative.per_message_seconds,
              expected[i].representative.per_message_seconds)
        << context;
    EXPECT_EQ(actual[i].representative.bytes_per_second,
              expected[i].representative.bytes_per_second)
        << context;
    EXPECT_EQ(actual[i].representative.jitter_fraction,
              expected[i].representative.jitter_fraction)
        << context;
    EXPECT_EQ(actual[i].representative_drop, expected[i].representative_drop) << context;
    EXPECT_EQ(actual[i].members, expected[i].members) << context << " cohort " << i;
  }
}

// A seeded fleet mixing log-uniform links with links exactly on the
// 10^(k/8) bucket edges, and clean clients with lossy ones — some at
// exactly the clean threshold, some on a loss-bucket edge.
std::vector<FleetClient> EdgeFleet(size_t clients, uint64_t seed,
                                   const CohortingOptions& options) {
  Rng rng(seed);
  std::vector<FleetClient> fleet(clients);
  for (size_t i = 0; i < clients; ++i) {
    FleetClient& client = fleet[i];
    client.id = static_cast<uint32_t>(i);
    if (rng.Bernoulli(0.5)) {
      client.network.per_message_seconds = std::pow(10.0, rng.UniformDouble(-5.0, -1.0));
      client.network.bytes_per_second = std::pow(10.0, rng.UniformDouble(3.0, 9.0));
    } else {
      client.network.per_message_seconds = std::pow(
          10.0, static_cast<double>(rng.UniformInt(-40, -8)) /
                    options.latency_buckets_per_decade);
      client.network.bytes_per_second = std::pow(
          10.0, static_cast<double>(rng.UniformInt(24, 72)) /
                    options.bandwidth_buckets_per_decade);
    }
    switch (rng.UniformInt(0, 4)) {
      case 0:
        client.fault_rates.drop = options.clean_drop_threshold;
        break;
      case 1:
        client.fault_rates.drop = std::pow(10.0, rng.UniformDouble(-4.0, -0.5));
        break;
      case 2:
        client.fault_rates.drop = std::pow(
            10.0, static_cast<double>(rng.UniformInt(-6, -1)) /
                      options.loss_buckets_per_decade);
        break;
      default:
        break;  // Clean.
    }
  }
  return fleet;
}

TEST(CohortTest, BuildCohortsMatchesTheMapGroupingOnAnyPool) {
  const CohortingOptions options;
  std::vector<std::unique_ptr<WorkerPool>> pools;
  for (const int threads : {2, 4, 8}) {
    pools.push_back(std::make_unique<WorkerPool>(threads));
  }
  const size_t sizes[] = {1, 2, 17, kCohortingChunk - 1, kCohortingChunk,
                          kCohortingChunk + 1, 3 * kCohortingChunk + 7};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const size_t clients : sizes) {
      const std::vector<FleetClient> fleet = EdgeFleet(clients, seed, options);
      const std::vector<Cohort> expected = ReferenceCohorts(fleet, options);
      const std::string context = StrFormat("seed %llu, %zu clients",
                                            static_cast<unsigned long long>(seed), clients);
      ExpectSameCohorts(BuildCohorts(fleet, options), expected, context + ", no pool");
      for (const auto& pool : pools) {
        ExpectSameCohorts(BuildCohorts(fleet, options, pool.get()), expected,
                          context + StrFormat(", %d-thread pool", pool->slot_count()));
      }
    }
  }
  // A generated lossy fleet, and coarser grids that pack many clients
  // into few buckets.
  FleetPopulationOptions population;
  population.client_count = 5000;
  population.lossy_fraction = 0.3;
  const std::vector<FleetClient> generated = GenerateFleet(population, 11);
  CohortingOptions coarse;
  coarse.latency_buckets_per_decade = 1.0;
  coarse.bandwidth_buckets_per_decade = 0.5;
  for (const CohortingOptions& grid : {options, coarse}) {
    ExpectSameCohorts(BuildCohorts(generated, grid, pools.back().get()),
                      ReferenceCohorts(generated, grid), "generated fleet");
  }
}

TEST(CohortTest, LossyClientsBucketApartFromCleanOnes) {
  const CohortingOptions options;
  FleetClient clean;
  clean.network = NetworkModel::TenBaseT();
  FleetClient lossy = clean;
  lossy.fault_rates.drop = 0.01;

  const CohortKey clean_key = BucketOf(clean, options);
  const CohortKey lossy_key = BucketOf(lossy, options);
  EXPECT_EQ(clean_key.loss_bucket, 0);
  EXPECT_LT(lossy_key.loss_bucket, 0);
  // Same link, different keys: a lossy client never shares a plan with a
  // clean one.
  EXPECT_EQ(clean_key.latency_bucket, lossy_key.latency_bucket);
  EXPECT_EQ(clean_key.bandwidth_bucket, lossy_key.bandwidth_bucket);
  EXPECT_TRUE(clean_key < lossy_key || lossy_key < clean_key);
  EXPECT_NE(clean_key.ToString(), lossy_key.ToString());
  // The loss axis only shows for lossy buckets; clean names are unchanged.
  EXPECT_EQ(clean_key.ToString().find("/D"), std::string::npos);
  EXPECT_NE(lossy_key.ToString().find("/D"), std::string::npos);

  // Below the clean threshold the loss axis stays off entirely.
  FleetClient barely = clean;
  barely.fault_rates.drop = options.clean_drop_threshold / 2.0;
  EXPECT_EQ(BucketOf(barely, options).loss_bucket, 0);

  // The bucket's representative drop rate lands back in the same bucket.
  FleetClient center = clean;
  center.fault_rates.drop = BucketDropCenter(lossy_key.loss_bucket, options);
  EXPECT_EQ(BucketOf(center, options).loss_bucket, lossy_key.loss_bucket);
}

TEST(CohortTest, InflateForLossChargesExpectedRetransmissions) {
  const NetworkModel base = NetworkModel::TenBaseT();
  const NetworkModel inflated = InflateForLoss(base, 0.5);
  // p = 0.5 doubles the expected attempts per delivery: latency doubles,
  // effective bandwidth halves.
  EXPECT_DOUBLE_EQ(inflated.per_message_seconds, base.per_message_seconds * 2.0);
  EXPECT_DOUBLE_EQ(inflated.bytes_per_second, base.bytes_per_second / 2.0);
  // Zero loss is the identity.
  const NetworkModel untouched = InflateForLoss(base, 0.0);
  EXPECT_DOUBLE_EQ(untouched.per_message_seconds, base.per_message_seconds);
  EXPECT_DOUBLE_EQ(untouched.bytes_per_second, base.bytes_per_second);
}

TEST(CohortTest, GenerateFleetLossyFractionDrawsLossyClients) {
  FleetPopulationOptions options;
  options.client_count = 400;
  // Default population is loss-free (back compatible).
  for (const FleetClient& client : GenerateFleet(options, 42)) {
    EXPECT_EQ(client.fault_rates.drop, 0.0);
  }
  options.lossy_fraction = 0.25;
  const std::vector<FleetClient> fleet = GenerateFleet(options, 42);
  size_t lossy = 0;
  for (const FleetClient& client : fleet) {
    if (client.fault_rates.drop > 0.0) {
      ++lossy;
      EXPECT_GE(client.fault_rates.drop, options.min_drop_rate);
      EXPECT_LE(client.fault_rates.drop, options.max_drop_rate);
    }
  }
  EXPECT_GT(lossy, fleet.size() / 8);
  EXPECT_LT(lossy, fleet.size() / 2);
  // Loss draws ride forked per-client streams: the networks of a lossy
  // population match the loss-free one byte for byte.
  const std::vector<FleetClient> clean = GenerateFleet(
      [&] { FleetPopulationOptions o = options; o.lossy_fraction = 0.0; return o; }(),
      42);
  ASSERT_EQ(clean.size(), fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(clean[i].network.per_message_seconds,
              fleet[i].network.per_message_seconds);
    EXPECT_EQ(clean[i].network.bytes_per_second, fleet[i].network.bytes_per_second);
  }
}

TEST(FingerprintTest, InsensitiveToRecordingOrderSensitiveToContent) {
  const uint64_t base = ProfileFingerprint(TestProfile());
  EXPECT_EQ(base, ProfileFingerprint(TestProfile()));

  // Same calls recorded in a different interleaving: same fingerprint.
  IccProfile reordered = TestProfile();
  EXPECT_EQ(base, ProfileFingerprint(reordered));

  EXPECT_NE(base, ProfileFingerprint(TestProfile(/*gui_bytes=*/201)));
  EXPECT_NE(base, ProfileFingerprint(TestProfile(200, 100001)));
}

TEST(PlanCacheTest, CountsHitsAndMissesAndEvictsLru) {
  PlanCache cache(2);
  AnalysisResult plan;
  const auto key = [](int32_t bucket) {
    return PlanCacheKey{1, CohortKey{bucket, 0}};
  };

  EXPECT_EQ(cache.Lookup(key(0)), nullptr);
  cache.Insert(key(0), plan);
  cache.Insert(key(1), plan);
  EXPECT_NE(cache.Lookup(key(0)), nullptr);  // Refreshes 0 over 1.
  cache.Insert(key(2), plan);                     // Evicts 1, the LRU.
  EXPECT_NE(cache.Lookup(key(0)), nullptr);
  EXPECT_EQ(cache.Lookup(key(1)), nullptr);
  EXPECT_NE(cache.Lookup(key(2)), nullptr);

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, DistinctProfilesDoNotCollide) {
  PlanCache cache(8);
  AnalysisResult plan;
  cache.Insert(PlanCacheKey{1, CohortKey{0, 0}}, plan);
  EXPECT_EQ(cache.Lookup(PlanCacheKey{2, CohortKey{0, 0}}), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  AnalysisResult plan;
  cache.Insert(PlanCacheKey{1, CohortKey{0, 0}}, plan);
  EXPECT_EQ(cache.Lookup(PlanCacheKey{1, CohortKey{0, 0}}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, HandlesOutliveEvictionAndReplacement) {
  PlanCache cache(1);
  AnalysisResult first;
  first.predicted_comm_seconds = 1.0;
  first.distribution.placement[7] = kServerMachine;
  cache.Insert(PlanCacheKey{1, CohortKey{0, 0}}, first);
  const std::shared_ptr<const AnalysisResult> held = cache.Lookup(PlanCacheKey{1, CohortKey{0, 0}});
  ASSERT_NE(held, nullptr);

  AnalysisResult second;
  second.predicted_comm_seconds = 2.0;
  cache.Insert(PlanCacheKey{1, CohortKey{0, 0}}, second);  // Replaces.
  cache.Insert(PlanCacheKey{1, CohortKey{1, 0}}, second);  // Evicts.
  EXPECT_EQ(cache.Lookup(PlanCacheKey{1, CohortKey{0, 0}}), nullptr);
  EXPECT_EQ(held->predicted_comm_seconds, 1.0);
  EXPECT_EQ(held->distribution.placement, first.distribution.placement);
}

// A plan with every serialized field populated, so the round-trip tests
// exercise the full snapshot format (bit-pattern doubles included).
AnalysisResult SnapshotPlan(double seconds) {
  AnalysisResult plan;
  plan.predicted_comm_seconds = seconds;
  plan.total_comm_seconds = seconds * 3.0 + 0.1;
  plan.client_classifications = 2;
  plan.server_classifications = 1;
  plan.client_instances = 6;
  plan.server_instances = 1;
  plan.non_remotable_pairs = 1;
  plan.distribution.default_machine = kClientMachine;
  plan.distribution.placement[0] = kClientMachine;
  plan.distribution.placement[1] = kClientMachine;
  plan.distribution.placement[2] = kServerMachine;
  CutEdgeReport edge;
  edge.client_side = 1;
  edge.server_side = 2;
  edge.seconds = seconds / 7.0;  // Not decimal-round; bit pattern must survive.
  plan.cut_edges.push_back(edge);
  return plan;
}

TEST(PlanCacheTest, SerializeLoadRoundTripsByteExactly) {
  PlanCache cache(8);
  cache.Insert(PlanCacheKey{11, CohortKey{0, 1}}, SnapshotPlan(0.125));
  cache.Insert(PlanCacheKey{11, CohortKey{2, 3}}, SnapshotPlan(1.0 / 3.0));
  cache.Insert(PlanCacheKey{12, CohortKey{0, 1}}, SnapshotPlan(2.7182818));

  const std::string snapshot = cache.Serialize();
  PlanCache reloaded(8);
  ASSERT_TRUE(reloaded.Load(snapshot).ok());
  EXPECT_EQ(reloaded.size(), 3u);
  // Byte-exact round trip: reserializing the loaded cache reproduces the
  // snapshot, LRU order and double bit patterns included.
  EXPECT_EQ(reloaded.Serialize(), snapshot);

  const auto hit = reloaded.Lookup(PlanCacheKey{11, CohortKey{2, 3}});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->predicted_comm_seconds, 1.0 / 3.0);
  EXPECT_EQ(hit->distribution.placement.at(2), kServerMachine);
  ASSERT_EQ(hit->cut_edges.size(), 1u);
  EXPECT_EQ(hit->cut_edges[0].seconds, (1.0 / 3.0) / 7.0);
}

TEST(PlanCacheTest, LoadPreservesLruOrderAcrossRestart) {
  PlanCache cache(2);
  const auto key = [](int32_t bucket) {
    return PlanCacheKey{1, CohortKey{bucket, 0}};
  };
  cache.Insert(key(0), SnapshotPlan(0.1));
  cache.Insert(key(1), SnapshotPlan(0.2));
  (void)cache.Lookup(key(0));  // 0 is now most recent; 1 is the LRU.

  PlanCache reloaded(2);
  ASSERT_TRUE(reloaded.Load(cache.Serialize()).ok());
  reloaded.Insert(key(2), SnapshotPlan(0.3));  // Must evict 1, not 0.
  EXPECT_NE(reloaded.Lookup(key(0)), nullptr);
  EXPECT_EQ(reloaded.Lookup(key(1)), nullptr);
  EXPECT_NE(reloaded.Lookup(key(2)), nullptr);
}

TEST(PlanCacheTest, LoadIntoSmallerCacheKeepsTheMostRecentEntries) {
  PlanCache cache(4);
  const auto key = [](int32_t bucket) {
    return PlanCacheKey{1, CohortKey{bucket, 0}};
  };
  for (int32_t bucket = 0; bucket < 4; ++bucket) {
    cache.Insert(key(bucket), SnapshotPlan(0.1 * (bucket + 1)));
  }

  PlanCache smaller(2);
  ASSERT_TRUE(smaller.Load(cache.Serialize()).ok());
  EXPECT_EQ(smaller.size(), 2u);
  EXPECT_NE(smaller.Lookup(key(3)), nullptr);
  EXPECT_NE(smaller.Lookup(key(2)), nullptr);
  EXPECT_EQ(smaller.Lookup(key(0)), nullptr);
}

TEST(PlanCacheTest, LoadRejectsMalformedSnapshots) {
  PlanCache cache(4);
  // v4 (checksummed records) is the only format: anything else — the
  // retired v1-v3 included — is rejected at the header.
  for (const char* text : {"not a cache", "plan-cache v9 0\n", "plan-cache v1 1\nentry oops\n",
                           "plan-cache v2 0\n", "plan-cache v3 0\n"}) {
    const Status status = cache.Load(text);
    ASSERT_FALSE(status.ok()) << text;
    EXPECT_NE(status.message().find("bad header"), std::string::npos) << text;
  }
  EXPECT_TRUE(cache.Load("plan-cache v4 0\n").ok());
}

TEST(PlanCacheTest, V4DamageIsLocalizedToTheDamagedRecord) {
  PlanCache cache(8);
  cache.Insert(PlanCacheKey{11, CohortKey{0, 1}}, SnapshotPlan(0.125));
  cache.Insert(PlanCacheKey{11, CohortKey{2, 3}}, SnapshotPlan(1.0 / 3.0));
  cache.Insert(PlanCacheKey{12, CohortKey{0, 1}}, SnapshotPlan(2.7182818));
  std::string snapshot = cache.Serialize();

  // Flip one bit in the middle record's plan line: only that record is
  // dropped (and counted); its neighbors load intact.
  const size_t damage = snapshot.find("plan ", snapshot.find("plan ") + 1);
  ASSERT_NE(damage, std::string::npos);
  snapshot[damage] ^= 0x08;
  PlanCache reloaded(8);
  ASSERT_TRUE(reloaded.Load(snapshot).ok());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 1u);
  EXPECT_NE(reloaded.Lookup(PlanCacheKey{11, CohortKey{0, 1}}), nullptr);
  EXPECT_NE(reloaded.Lookup(PlanCacheKey{12, CohortKey{0, 1}}), nullptr);

  // A truncated tail (torn write) drops the unfinished record without
  // counting it as corruption.
  const std::string full = cache.Serialize();
  const std::string torn = full.substr(0, full.size() - 10);
  PlanCache torn_cache(8);
  ASSERT_TRUE(torn_cache.Load(torn).ok());
  EXPECT_EQ(torn_cache.size(), 2u);
  EXPECT_EQ(torn_cache.stats().corrupt_skipped, 0u);
}

TEST(FleetServiceTest, CacheFileRoundTripServesWarmRestart) {
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(48);
  const std::string path = ::testing::TempDir() + "/coign_plan_cache_test.txt";

  FleetServiceOptions options;
  options.worker_threads = 1;
  FleetPartitionService cold(options);
  Result<FleetPlanResult> first = cold.Plan(profile, fleet);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.plans_computed, 0u);
  ASSERT_TRUE(cold.SaveCache(path).ok());

  FleetPartitionService warm(options);
  ASSERT_TRUE(warm.LoadCache(path).ok());
  EXPECT_EQ(warm.cache_size(), cold.cache_size());
  Result<FleetPlanResult> second = warm.Plan(profile, fleet);
  ASSERT_TRUE(second.ok());
  // A warm restart recomputes nothing and serves identical plans.
  EXPECT_EQ(second->stats.plans_computed, 0u);
  EXPECT_EQ(second->stats.cache_hits, second->stats.cohorts);
  ASSERT_EQ(second->plans.size(), first->plans.size());
  for (size_t i = 0; i < first->plans.size(); ++i) {
    EXPECT_EQ(second->plans[i].analysis.predicted_comm_seconds,
              first->plans[i].analysis.predicted_comm_seconds);
    EXPECT_EQ(second->plans[i].analysis.distribution.placement,
              first->plans[i].analysis.distribution.placement);
  }

  FleetPartitionService missing(options);
  EXPECT_EQ(missing.LoadCache(path + ".does-not-exist").code(),
            StatusCode::kNotFound);
}

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 4}) {
    WorkerPool pool(threads);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    pool.ParallelFor(kCount, [&](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << i;
    }
    pool.ParallelFor(0, [&](size_t) { ADD_FAILURE() << "empty batch ran a task"; });
  }
}

TEST(WorkerPoolTest, BatchesAreReusable) {
  WorkerPool pool(3);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(17, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(FleetServiceTest, RejectsAnEmptyFleet) {
  FleetPartitionService service;
  const IccProfile profile = TestProfile();
  Result<FleetPlanResult> planned = service.Plan(profile, {});
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);
}

TEST(FleetServiceTest, EveryClientIsServedByItsOwnBucket) {
  FleetServiceOptions options;
  options.worker_threads = 4;
  FleetPartitionService service(options);
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(150);
  Result<FleetPlanResult> planned = service.Plan(profile, fleet);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->stats.clients, fleet.size());
  EXPECT_EQ(planned->stats.plans_computed, planned->stats.cohorts);
  for (const FleetClient& client : fleet) {
    const int index = planned->CohortIndexOf(client.id);
    ASSERT_GE(index, 0) << client.id;
    EXPECT_EQ(planned->plans[index].cohort.key,
              BucketOf(client.network, options.cohorting));
    // Pins hold in every cohort's plan.
    const Distribution& d = planned->plans[index].analysis.distribution;
    EXPECT_EQ(d.MachineFor(0), kClientMachine);
    EXPECT_EQ(d.MachineFor(2), kServerMachine);
  }
}

// Every AnalysisResult field, by exact equality.
void ExpectSameAnalysis(const AnalysisResult& actual, const AnalysisResult& expected,
                        const std::string& context) {
  EXPECT_EQ(actual.distribution.placement, expected.distribution.placement) << context;
  EXPECT_EQ(actual.distribution.default_machine, expected.distribution.default_machine)
      << context;
  EXPECT_EQ(actual.cut_value_units, expected.cut_value_units) << context;
  EXPECT_EQ(actual.predicted_comm_seconds, expected.predicted_comm_seconds) << context;
  EXPECT_EQ(actual.total_comm_seconds, expected.total_comm_seconds) << context;
  EXPECT_EQ(actual.client_classifications, expected.client_classifications) << context;
  EXPECT_EQ(actual.server_classifications, expected.server_classifications) << context;
  EXPECT_EQ(actual.client_instances, expected.client_instances) << context;
  EXPECT_EQ(actual.server_instances, expected.server_instances) << context;
  EXPECT_EQ(actual.non_remotable_pairs, expected.non_remotable_pairs) << context;
  ASSERT_EQ(actual.cut_edges.size(), expected.cut_edges.size()) << context;
  for (size_t e = 0; e < expected.cut_edges.size(); ++e) {
    EXPECT_EQ(actual.cut_edges[e].client_side, expected.cut_edges[e].client_side) << context;
    EXPECT_EQ(actual.cut_edges[e].server_side, expected.cut_edges[e].server_side) << context;
    EXPECT_EQ(actual.cut_edges[e].seconds, expected.cut_edges[e].seconds) << context;
  }
}

void ExpectSamePlans(const FleetPlanResult& actual, const FleetPlanResult& expected,
                     const std::string& context) {
  ASSERT_EQ(actual.plans.size(), expected.plans.size()) << context;
  for (size_t i = 0; i < expected.plans.size(); ++i) {
    const std::string where = context + StrFormat(", cohort %zu", i);
    EXPECT_EQ(actual.plans[i].cohort.key, expected.plans[i].cohort.key) << where;
    EXPECT_EQ(actual.plans[i].cohort.members, expected.plans[i].cohort.members) << where;
    ExpectSameAnalysis(actual.plans[i].analysis, expected.plans[i].analysis, where);
  }
  // Regret reductions run in index order on the coordinator, so even the
  // accumulated doubles are identical, not merely close.
  EXPECT_EQ(actual.regret.mean, expected.regret.mean) << context;
  EXPECT_EQ(actual.regret.p95, expected.regret.p95) << context;
  EXPECT_EQ(actual.regret.max, expected.regret.max) << context;
  EXPECT_EQ(actual.regret.mean_cohort_seconds, expected.regret.mean_cohort_seconds) << context;
  EXPECT_EQ(actual.regret.mean_optimal_seconds, expected.regret.mean_optimal_seconds)
      << context;
}

// A cold plan and two warm replans on one service.
std::vector<FleetPlanResult> PlanThreeTimes(const IccProfile& profile,
                                            const std::vector<FleetClient>& fleet,
                                            int threads, size_t cache_capacity) {
  FleetServiceOptions options;
  options.worker_threads = threads;
  options.cache_capacity = cache_capacity;
  options.compute_regret = true;
  FleetPartitionService service(options);
  std::vector<FleetPlanResult> runs;
  for (int run = 0; run < 3; ++run) {
    Result<FleetPlanResult> planned = service.Plan(profile, fleet);
    EXPECT_TRUE(planned.ok());
    runs.push_back(*std::move(planned));
  }
  return runs;
}

TEST(FleetServiceTest, ParallelPlanningMatchesSerialBitForBit) {
  const IccProfile profile = TestProfile();
  FleetPopulationOptions population;
  population.client_count = 200;
  population.lossy_fraction = 0.3;
  const std::vector<FleetClient> fleet = GenerateFleet(population, 42);

  const std::vector<FleetPlanResult> serial = PlanThreeTimes(profile, fleet, 1, 1024);
  const std::vector<FleetPlanResult> parallel = PlanThreeTimes(profile, fleet, 8, 1024);
  ASSERT_GT(serial[0].plans.size(), 1u);
  EXPECT_EQ(serial[1].stats.cache_hits, serial[1].stats.cohorts);
  for (size_t run = 0; run < serial.size(); ++run) {
    const std::string context = StrFormat("run %zu", run);
    ExpectSamePlans(parallel[run], serial[run], context);
    // Warm replans serve exactly what the cold plan computed.
    ExpectSamePlans(serial[run], serial[0], context + " vs cold");
  }
}

TEST(FleetServiceTest, CacheSmallerThanTheCohortsStillPlansBitForBit) {
  // Inserts evict entries probed earlier in the same Plan; the handles
  // the probes returned must keep those plans alive and intact.
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(200);
  const std::vector<FleetPlanResult> reference = PlanThreeTimes(profile, fleet, 1, 1024);
  const size_t cohorts = reference[0].plans.size();
  ASSERT_GT(cohorts, 3u);
  for (const int threads : {1, 8}) {
    const std::vector<FleetPlanResult> small =
        PlanThreeTimes(profile, fleet, threads, cohorts / 2);
    for (size_t run = 0; run < small.size(); ++run) {
      ExpectSamePlans(small[run], reference[run],
                      StrFormat("%d threads, run %zu", threads, run));
    }
  }
}

TEST(FleetServiceTest, MutatingAReturnedPlanLeavesTheCacheIntact) {
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(120);
  FleetServiceOptions options;
  options.worker_threads = 4;
  FleetPartitionService service(options);
  Result<FleetPlanResult> cold = service.Plan(profile, fleet);
  ASSERT_TRUE(cold.ok());
  const FleetPlanResult pristine = *cold;

  Result<FleetPlanResult> warm = service.Plan(profile, fleet);
  ASSERT_TRUE(warm.ok());
  for (FleetPlanResult* planned : {&*cold, &*warm}) {
    for (CohortPlan& plan : planned->plans) {
      plan.analysis.distribution.placement[1] = kServerMachine + 7;
      plan.analysis.predicted_comm_seconds = -1.0;
      plan.analysis.cut_edges.clear();
    }
  }

  Result<FleetPlanResult> again = service.Plan(profile, fleet);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, again->stats.cohorts);
  ExpectSamePlans(*again, pristine, "after mutation");
}

TEST(FleetServiceTest, SecondPassIsServedEntirelyFromCache) {
  FleetServiceOptions options;
  options.worker_threads = 4;
  FleetPartitionService service(options);
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(120);

  Result<FleetPlanResult> first = service.Plan(profile, fleet);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.cache_hits, 0u);

  Result<FleetPlanResult> second = service.Plan(profile, fleet);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.plans_computed, 0u);
  EXPECT_EQ(second->stats.cache_hits, second->stats.cohorts);
  for (const CohortPlan& plan : second->plans) {
    EXPECT_TRUE(plan.from_cache);
  }
  EXPECT_GT(service.cache_stats().hit_rate(), 0.0);

  // A different profile is a different cache namespace: all misses again.
  const IccProfile other = TestProfile(/*gui_bytes=*/5000);
  Result<FleetPlanResult> third = service.Plan(other, fleet);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.cache_hits, 0u);
}

TEST(FleetServiceTest, CompiledPlanMatchesStandaloneAnalyses) {
  // Plan compiles the profile once and prices it per cohort (and per
  // client in the regret pass) on warm per-slot sessions. Every plan must
  // equal a standalone Analyze at its cohort's center, and the regret
  // pass must equal one recomputed from standalone per-client analyses.
  IccProfile profile = TestProfile(5000, 60000);
  ClassificationInfo helper;
  helper.id = 3;
  helper.clsid = Guid::FromName("clsid:Helper");
  helper.class_name = "Helper";
  helper.instance_count = 2;
  profile.RecordClassification(helper);
  CallKey worker_helper;
  worker_helper.src = 1;
  worker_helper.dst = 3;
  worker_helper.iid = Guid::FromName("iid:IFleetTest");
  profile.RecordCall(worker_helper, 300, 64, /*remotable=*/false);
  CallKey helper_gui = worker_helper;
  helper_gui.src = 3;
  helper_gui.dst = 0;
  profile.RecordCall(helper_gui, 40000, 64, true);

  FleetPopulationOptions population;
  population.client_count = 300;
  population.lossy_fraction = 0.3;
  const std::vector<FleetClient> fleet = GenerateFleet(population, 7);
  FleetServiceOptions options;
  options.worker_threads = 4;
  options.compute_regret = true;
  FleetPartitionService service(options);
  Result<FleetPlanResult> planned = service.Plan(profile, fleet);
  ASSERT_TRUE(planned.ok());

  const ProfileAnalysisEngine engine;
  std::set<MachineId> worker_sides;
  for (const CohortPlan& plan : planned->plans) {
    const NetworkProfile pricing = NetworkProfile::Exact(
        InflateForLoss(plan.cohort.representative, plan.cohort.representative_drop));
    Result<AnalysisResult> expected = engine.Analyze(profile, pricing);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(plan.analysis.cut_value_units, expected->cut_value_units);
    EXPECT_EQ(plan.analysis.distribution.placement, expected->distribution.placement);
    EXPECT_EQ(plan.analysis.predicted_comm_seconds, expected->predicted_comm_seconds);
    EXPECT_EQ(plan.analysis.total_comm_seconds, expected->total_comm_seconds);
    EXPECT_EQ(plan.analysis.cut_edges.size(), expected->cut_edges.size());
    worker_sides.insert(plan.analysis.distribution.MachineFor(1));
  }
  EXPECT_EQ(worker_sides.size(), 2u) << "the fleet should straddle a plan flip";

  std::vector<double> regrets;
  double cohort_sum = 0.0;
  double optimal_sum = 0.0;
  double mean = 0.0;
  for (const FleetClient& client : fleet) {
    const NetworkProfile exact =
        NetworkProfile::Exact(InflateForLoss(client.network, client.fault_rates.drop));
    Result<AnalysisResult> optimal = engine.Analyze(profile, exact);
    ASSERT_TRUE(optimal.ok());
    const double cohort_seconds =
        PredictExecutionTime(
            profile, planned->plans[planned->CohortIndexOf(client.id)].analysis.distribution,
            exact)
            .total_seconds();
    const double optimal_seconds =
        PredictExecutionTime(profile, optimal->distribution, exact).total_seconds();
    cohort_sum += cohort_seconds;
    optimal_sum += optimal_seconds;
    regrets.push_back(optimal_seconds > 0.0 ? cohort_seconds / optimal_seconds - 1.0 : 0.0);
    mean += regrets.back();
  }
  const double clients = static_cast<double>(fleet.size());
  EXPECT_EQ(planned->regret.mean, mean / clients);
  EXPECT_EQ(planned->regret.mean_cohort_seconds, cohort_sum / clients);
  EXPECT_EQ(planned->regret.mean_optimal_seconds, optimal_sum / clients);
  EXPECT_EQ(planned->regret.max, *std::max_element(regrets.begin(), regrets.end()));
}

TEST(FleetServiceTest, CohortRegretStaysSmall) {
  FleetServiceOptions options;
  options.worker_threads = 4;
  options.compute_regret = true;
  FleetPartitionService service(options);
  const IccProfile profile = TestProfile();
  Result<FleetPlanResult> planned = service.Plan(profile, TestFleet(300));
  ASSERT_TRUE(planned.ok());
  EXPECT_GE(planned->regret.mean, 0.0);
  EXPECT_LE(planned->regret.mean, 0.10);  // The issue's acceptance bound.
  EXPECT_GE(planned->regret.max, planned->regret.p95);
  EXPECT_GT(planned->regret.mean_optimal_seconds, 0.0);
}

}  // namespace
}  // namespace coign
