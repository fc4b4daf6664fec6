#include "src/fleet/service.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "src/analysis/prediction.h"
#include "src/fleet/fingerprint.h"
#include "src/support/str_util.h"

namespace coign {

std::string FleetRegret::ToString() const {
  return StrFormat("regret{mean=%.2f%%, p95=%.2f%%, max=%.2f%%, "
                   "cohort_mean=%.6fs, optimal_mean=%.6fs}",
                   100.0 * mean, 100.0 * p95, 100.0 * max, mean_cohort_seconds,
                   mean_optimal_seconds);
}

std::string FleetPlanStats::ToString() const {
  return StrFormat("fleet{clients=%zu, cohorts=%zu, plans_computed=%zu, "
                   "cache_hits=%zu}",
                   clients, cohorts, plans_computed, cache_hits);
}

int FleetPlanResult::CohortIndexOf(uint32_t client_id) const {
  if (client_id >= client_cohort_.size()) {
    return -1;
  }
  return client_cohort_[client_id];
}

FleetPartitionService::FleetPartitionService(FleetServiceOptions options)
    : options_(options),
      engine_(options.analysis),
      cache_(options.cache_capacity),
      pool_(options.worker_threads) {
  cache_.SetObservability(options_.obs);
  cut_sessions_.resize(static_cast<size_t>(pool_.slot_count()));
}

Result<FleetPlanResult> FleetPartitionService::Plan(
    const IccProfile& profile, const std::vector<FleetClient>& fleet) {
  if (fleet.empty()) {
    return InvalidArgumentError("fleet is empty");
  }

  const uint64_t fingerprint = ProfileFingerprint(profile);
  std::vector<Cohort> cohorts = BuildCohorts(fleet, options_.cohorting, &pool_);

  FleetPlanResult result;
  result.stats.clients = fleet.size();
  result.stats.cohorts = cohorts.size();
  result.plans.resize(cohorts.size());

  // Cache probes run here on the coordinator, in grid order, so LRU
  // traffic (and with it eviction and the hit/miss counters) does not
  // depend on worker scheduling. A hit is only a handle: the copy into
  // the result is made on the workers below, and the handle keeps the
  // plan alive even if an insert further down evicts its entry.
  std::vector<std::shared_ptr<const AnalysisResult>> cached(cohorts.size());
  std::vector<size_t> misses;
  for (size_t i = 0; i < cohorts.size(); ++i) {
    CohortPlan& plan = result.plans[i];
    plan.cohort = std::move(cohorts[i]);
    cached[i] = cache_.Lookup(PlanCacheKey{fingerprint, plan.cohort.key});
    if (cached[i] != nullptr) {
      plan.from_cache = true;
      ++result.stats.cache_hits;
    } else {
      misses.push_back(i);
    }
  }

  // The profile is compiled once, shared read-only by every cohort task
  // and the regret pass; a fully warm replan without regret needs none.
  std::optional<CompiledProfile> compiled;
  if (!misses.empty() || options_.compute_regret) {
    Result<CompiledProfile> compiling = engine_.Compile(profile);
    if (!compiling.ok()) {
      return compiling.status();
    }
    compiled.emplace(*std::move(compiling));
  }

  // One task per cohort; each writes only its own slots. A hit copies the
  // cached plan out; a miss analyzes the cohort into its plan and, when
  // the cache keeps plans at all, copies it for the cache. Errors are
  // collected per slot and reported in index order.
  const bool caching = cache_.capacity() > 0;
  std::vector<AnalysisResult> for_cache(caching ? cohorts.size() : 0);
  std::vector<Status> task_status(cohorts.size());
  pool_.ParallelFor(result.plans.size(), [&](size_t i) {
    CohortPlan& plan = result.plans[i];
    if (cached[i] != nullptr) {
      plan.analysis = *cached[i];
      return;
    }
    // Lossy cohorts price their cut on the loss-inflated representative:
    // expected retransmissions make every message slower, which pushes the
    // min cut toward fewer, larger crossings than the clean bucket's plan.
    const NetworkProfile pricing = NetworkProfile::Exact(
        InflateForLoss(plan.cohort.representative, plan.cohort.representative_drop));
    // Per-slot warm start: every cohort cuts the same contracted network,
    // so each solve after a slot's first resumes from retained flow.
    Result<AnalysisResult> analyzed = engine_.Analyze(
        *compiled, pricing, &cut_sessions_[static_cast<size_t>(WorkerPool::CurrentSlot())]);
    if (analyzed.ok()) {
      plan.analysis = *std::move(analyzed);
      if (caching) {
        for_cache[i] = plan.analysis;
      }
    } else {
      task_status[i] = analyzed.status();
    }
  });
  for (const Status& status : task_status) {
    if (!status.ok()) {
      return status;
    }
  }
  result.stats.plans_computed = misses.size();

  // Insertions, like probes, stay on the coordinator in grid order; each
  // moves its copy in, so the coordinator copies nothing.
  if (caching) {
    for (size_t miss : misses) {
      cache_.Insert(PlanCacheKey{fingerprint, result.plans[miss].cohort.key},
                    std::move(for_cache[miss]));
    }
  }

  if (options_.obs != nullptr) {
    // Coordinator-side, after the barrier, in grid order: worker
    // scheduling can never reorder (or time-skew) what gets recorded.
    Tracer& tracer = options_.obs->tracer();
    for (const CohortPlan& plan : result.plans) {
      const double start = tracer.Now();
      tracer.Complete("cohort-plan", "fleet", kTrackFleet, start, tracer.Now(),
                      {{"cohort", Tracer::ArgString(plan.cohort.key.ToString())},
                       {"members", Tracer::ArgUint(plan.cohort.members.size())},
                       {"cache", Tracer::ArgString(plan.from_cache ? "hit" : "miss")}});
    }
    MetricsRegistry& metrics = options_.obs->metrics();
    metrics.GetCounter("fleet.plan_calls")->Add(1);
    metrics.GetCounter("fleet.clients")->Add(result.stats.clients);
    metrics.GetCounter("fleet.cohorts")->Add(result.stats.cohorts);
    metrics.GetCounter("fleet.cache.hits")->Add(result.stats.cache_hits);
    metrics.GetCounter("fleet.cache.misses")->Add(misses.size());
    metrics.GetGauge("fleet.pool.workers")
        ->Set(static_cast<double>(options_.worker_threads));
  }

  // Client id -> cohort index, for CohortIndexOf. Every client is a member
  // of one cohort, so the member lists hold every id without a second
  // pass over the (much wider) fleet records.
  uint32_t max_id = 0;
  for (const CohortPlan& plan : result.plans) {
    for (uint32_t member : plan.cohort.members) {
      max_id = std::max(max_id, member);
    }
  }
  result.client_cohort_.assign(static_cast<size_t>(max_id) + 1, -1);
  for (size_t i = 0; i < result.plans.size(); ++i) {
    for (uint32_t member : result.plans[i].cohort.members) {
      result.client_cohort_[member] = static_cast<int>(i);
    }
  }

  if (!options_.compute_regret) {
    return result;
  }

  // Regret pass: every client's individually optimal cut (the per-client
  // bill cohorting avoids) vs its cohort's plan, both priced on the
  // client's own exact network.
  std::vector<double> cohort_seconds(fleet.size());
  std::vector<double> optimal_seconds(fleet.size());
  std::vector<Status> regret_status(fleet.size());
  pool_.ParallelFor(fleet.size(), [&](size_t i) {
    const FleetClient& client = fleet[i];
    // Both sides of the regret ratio feel the client's own measured loss.
    const NetworkProfile exact = NetworkProfile::Exact(
        InflateForLoss(client.network, client.fault_rates.drop));
    const int cohort_index = result.CohortIndexOf(client.id);
    const ExecutionPrediction cohort_prediction = PredictExecutionTime(
        profile, result.plans[cohort_index].analysis.distribution, exact);
    Result<AnalysisResult> optimal = engine_.Analyze(
        *compiled, exact, &cut_sessions_[static_cast<size_t>(WorkerPool::CurrentSlot())]);
    if (!optimal.ok()) {
      regret_status[i] = optimal.status();
      return;
    }
    const ExecutionPrediction optimal_prediction =
        PredictExecutionTime(profile, optimal->distribution, exact);
    cohort_seconds[i] = cohort_prediction.total_seconds();
    optimal_seconds[i] = optimal_prediction.total_seconds();
  });
  for (const Status& status : regret_status) {
    if (!status.ok()) {
      return status;
    }
  }

  // Reduce in index order on the coordinator: deterministic sums.
  std::vector<double> regrets(fleet.size());
  double cohort_sum = 0.0;
  double optimal_sum = 0.0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    cohort_sum += cohort_seconds[i];
    optimal_sum += optimal_seconds[i];
    regrets[i] = optimal_seconds[i] > 0.0
                     ? cohort_seconds[i] / optimal_seconds[i] - 1.0
                     : 0.0;
    result.regret.mean += regrets[i];
    result.regret.max = std::max(result.regret.max, regrets[i]);
  }
  result.regret.mean /= static_cast<double>(fleet.size());
  result.regret.mean_cohort_seconds = cohort_sum / static_cast<double>(fleet.size());
  result.regret.mean_optimal_seconds = optimal_sum / static_cast<double>(fleet.size());
  std::sort(regrets.begin(), regrets.end());
  result.regret.p95 =
      regrets[static_cast<size_t>(0.95 * static_cast<double>(regrets.size() - 1))];
  return result;
}

}  // namespace coign
