#include "src/fleet/cohort.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "src/fleet/thread_pool.h"
#include "src/support/str_util.h"

namespace coign {

std::string CohortKey::ToString() const {
  // The loss axis only appears for lossy buckets, so clean-fleet reports
  // read exactly as they did before loss bucketing existed.
  if (loss_bucket == 0) {
    return StrFormat("L%+d/B%+d", latency_bucket, bandwidth_bucket);
  }
  return StrFormat("L%+d/B%+d/D%+d", latency_bucket, bandwidth_bucket, loss_bucket);
}

CohortKey BucketOf(const NetworkModel& network, const CohortingOptions& options) {
  CohortKey key;
  key.latency_bucket = static_cast<int32_t>(std::floor(
      std::log10(network.per_message_seconds) * options.latency_buckets_per_decade));
  key.bandwidth_bucket = static_cast<int32_t>(std::floor(
      std::log10(network.bytes_per_second) * options.bandwidth_buckets_per_decade));
  return key;
}

CohortKey BucketOf(const FleetClient& client, const CohortingOptions& options) {
  CohortKey key = BucketOf(client.network, options);
  const double drop = client.fault_rates.drop;
  if (drop > options.clean_drop_threshold) {
    // Drop rates are < 1, so buckets come out negative; clamp to -1 keeps
    // even a pathological near-1 rate out of the clean bucket 0.
    key.loss_bucket = std::min(
        static_cast<int32_t>(
            std::floor(std::log10(drop) * options.loss_buckets_per_decade)),
        -1);
  }
  return key;
}

NetworkModel BucketCenter(const CohortKey& key, const CohortingOptions& options) {
  NetworkModel center;
  center.per_message_seconds = std::pow(
      10.0, (key.latency_bucket + 0.5) / options.latency_buckets_per_decade);
  center.bytes_per_second = std::pow(
      10.0, (key.bandwidth_bucket + 0.5) / options.bandwidth_buckets_per_decade);
  center.jitter_fraction = 0.0;  // The center is a model, not a measurement.
  center.name = "cohort " + key.ToString();
  return center;
}

double BucketDropCenter(int32_t loss_bucket, const CohortingOptions& options) {
  if (loss_bucket == 0) {
    return 0.0;
  }
  return std::pow(10.0, (loss_bucket + 0.5) / options.loss_buckets_per_decade);
}

NetworkModel InflateForLoss(NetworkModel network, double drop_rate) {
  if (drop_rate <= 0.0) {
    return network;
  }
  const double inflation = 1.0 / (1.0 - drop_rate);
  network.per_message_seconds *= inflation;
  network.bytes_per_second /= inflation;
  return network;
}

std::vector<Cohort> BuildCohorts(const std::vector<FleetClient>& fleet,
                                 const CohortingOptions& options, WorkerPool* pool) {
  // The per-client logarithms are the bulk of the work; they run in
  // fixed-size chunks, each writing only its own range of `keys` and
  // `ids`. A one-thread pool runs the chunks inline. The ids are copied
  // out here so the serial passes below stream two small arrays instead
  // of striding through the fleet.
  WorkerPool inline_pool(1);
  WorkerPool& runner = pool != nullptr ? *pool : inline_pool;
  std::vector<CohortKey> keys(fleet.size());
  std::vector<uint32_t> ids(fleet.size());
  runner.ParallelFor((fleet.size() + kCohortingChunk - 1) / kCohortingChunk,
                     [&](size_t chunk) {
                       const size_t end = std::min(fleet.size(), (chunk + 1) * kCohortingChunk);
                       for (size_t i = chunk * kCohortingChunk; i < end; ++i) {
                         keys[i] = BucketOf(fleet[i], options);
                         ids[i] = fleet[i].id;
                       }
                     });

  // Dense slots in first-seen order, counting members per slot. Fleets
  // occupy a few hundred buckets, so the hash map stays small and hot.
  std::unordered_map<CohortKey, uint32_t, CohortKeyHash> slot_of;
  std::vector<CohortKey> slot_keys;
  std::vector<uint32_t> slot_sizes;
  std::vector<uint32_t> client_slot(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    const auto [it, inserted] =
        slot_of.try_emplace(keys[i], static_cast<uint32_t>(slot_keys.size()));
    if (inserted) {
      slot_keys.push_back(keys[i]);
      slot_sizes.push_back(0);
    }
    client_slot[i] = it->second;
    ++slot_sizes[it->second];
  }

  // One sort of the occupied keys puts the cohorts in grid order.
  std::vector<uint32_t> order(slot_keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return slot_keys[a] < slot_keys[b]; });
  std::vector<Cohort> cohorts(order.size());
  std::vector<std::vector<uint32_t>*> slot_members(order.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const uint32_t slot = order[rank];
    Cohort& cohort = cohorts[rank];
    cohort.key = slot_keys[slot];
    cohort.representative = BucketCenter(cohort.key, options);
    cohort.representative_drop = BucketDropCenter(cohort.key.loss_bucket, options);
    cohort.members.reserve(slot_sizes[slot]);
    slot_members[slot] = &cohort.members;
  }
  // Scattering in fleet order keeps every member list in fleet order.
  for (size_t i = 0; i < fleet.size(); ++i) {
    slot_members[client_slot[i]]->push_back(ids[i]);
  }
  return cohorts;
}

}  // namespace coign
