// The fleet workload: one FleetPartitionService process pricing one fixed
// profile under many networks. A seeded fleet of 200k clients, 30% of
// them lossy, is planned cold on a fresh service (no cache), then
// replanned warm twice from that service's plan cache; repeat.
// Worker threads: the host's cores but one, at most 4. A regret pass runs
// untimed on a 2k-client fleet drawn from the same seed.
//
// An operation is one Plan() call.

#include <algorithm>
#include <memory>
#include <set>
#include <thread>

#include "perfbench/src/layers.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/apps/octarine.h"
#include "src/fleet/cohort.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/service.h"
#include "src/profile/log_file.h"
#include "src/sim/fleet_population.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;
constexpr int kClients = 200000;
constexpr int kShortClients = 5000;
constexpr int kRegretClients = 2000;
constexpr int kShortRegretClients = 200;
constexpr double kLossyFraction = 0.3;
constexpr int kWarmReplans = 2;
constexpr int kMaxThreads = 4;

struct Inputs {
  coign::IccProfile profile;  // As the service loads it: parsed from the log.
  std::vector<coign::FleetClient> fleet;
  std::vector<coign::FleetClient> regret_fleet;
  size_t text_bytes = 0;
  uint64_t calls = 0;
};

Inputs Setup(uint64_t seed, bool short_mode) {
  Inputs in;
  const std::unique_ptr<coign::Application> app = coign::MakeOctarine();
  const ProfiledRun profiled = ProfileScenarios(*app, {"o_newdoc", "o_oldwp3"}, seed);
  in.calls = profiled.calls;
  std::string text;
  {
    ScopedSpan span("profile.serialize");
    text = coign::SerializeProfile(profiled.profile);
  }
  in.text_bytes = text.size();
  {
    ScopedSpan span("profile.parse");
    in.profile = Need(coign::ParseProfile(text), "parse profile");
  }
  coign::FleetPopulationOptions population;
  population.lossy_fraction = kLossyFraction;
  {
    ScopedSpan span("sim.fleet_generate");
    population.client_count = short_mode ? kShortClients : kClients;
    in.fleet = coign::GenerateFleet(population, seed);
  }
  population.client_count = short_mode ? kShortRegretClients : kRegretClients;
  in.regret_fleet = coign::GenerateFleet(population, seed);
  return in;
}

int WorkerThreads() {
  // One core stays free for the rest of the host: a parallel plan waits
  // for its slowest worker, so a worker sharing a busy core stalls it.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, kMaxThreads);
}

coign::FleetServiceOptions ServiceOptions(int threads) {
  coign::FleetServiceOptions options;
  options.worker_threads = threads;
  options.cache_capacity = 1 << 16;  // Never evicts: the fleet has < 2k cohorts.
  return options;
}

uint64_t PlanDigest(const coign::FleetPlanResult& plan) {
  Digest digest;
  digest.Mix(static_cast<uint64_t>(plan.stats.clients));
  digest.Mix(static_cast<uint64_t>(plan.stats.cohorts));
  for (const coign::CohortPlan& cohort : plan.plans) {
    digest.Mix(static_cast<uint64_t>(static_cast<uint32_t>(cohort.cohort.key.latency_bucket)));
    digest.Mix(static_cast<uint64_t>(static_cast<uint32_t>(cohort.cohort.key.bandwidth_bucket)));
    digest.Mix(static_cast<uint64_t>(static_cast<uint32_t>(cohort.cohort.key.loss_bucket)));
    digest.Mix(static_cast<uint64_t>(cohort.cohort.members.size()));
    MixAnalysis(&digest, cohort.analysis);
  }
  return digest.value();
}

// The network a cohort's plan is priced on, as the service prices it.
coign::NetworkProfile CohortPricing(const coign::Cohort& cohort) {
  return coign::NetworkProfile::Exact(
      coign::InflateForLoss(cohort.representative, cohort.representative_drop));
}

// Every cohort plan must equal a standalone Analyze at the cohort center.
bool CheckPlans(const Inputs& in, const coign::FleetPlanResult& plan) {
  const coign::ProfileAnalysisEngine engine;
  for (const coign::CohortPlan& cohort : plan.plans) {
    const coign::AnalysisResult expected =
        Need(engine.Analyze(in.profile, CohortPricing(cohort.cohort)), "analyze cohort");
    if (expected.cut_value_units != cohort.analysis.cut_value_units ||
        !SameDistribution(expected.distribution, cohort.analysis.distribution)) {
      return false;
    }
  }
  return plan.stats.clients == in.fleet.size();
}

}  // namespace

void RunFleet(const Options& options, Report* report) {
  double setup_s = 0.0;
  HostSpeed speed;
  SpanRecorder::Get().Enable(options.trace);
  Inputs in = TimedSetup(
      options.short_mode ? 1 : kSetupRepeats,
      [&] { return Setup(options.seed, options.short_mode); }, &speed, &setup_s);
  SpanRecorder::Get().Enable(false);
  const int threads = WorkerThreads();

  uint64_t reference = 0;  // Digest of the first plan; every plan repeats it.
  bool have_reference = false;
  coign::FleetPlanResult first_plan;
  SlotTimes cold_ms;  // One slot: every cold plan is the same work.
  SlotTimes warm_ms;  // Slot w: the w-th warm replan of a service.
  uint64_t op_id = 0;
  double peak_rss_mb = 0.0;

  const auto check = [&](const coign::FleetPlanResult& plan) {
    const uint64_t digest = PlanDigest(plan);
    if (!have_reference) {
      have_reference = true;
      reference = digest;
      first_plan = plan;
      return CheckPlans(in, plan);
    }
    return digest == reference;
  };

  // Cold plan on a fresh service, then warm replans from its cache.
  const auto run_cycles = [&](double budget_ms, bool traced) {
    const double start = NowMs();
    do {
      coign::FleetPartitionService service(ServiceOptions(threads));
      SpanRecorder::Get().Enable(traced);
      SpanRecorder::Get().SetOp(++op_id);
      if (traced) {
        // The service's coordinator-serial steps, called on their own.
        {
          ScopedSpan span("fleet.fingerprint");
          (void)coign::ProfileFingerprint(in.profile);
        }
        ScopedSpan span("fleet.cohort");
        (void)coign::BuildCohorts(in.fleet, service.options().cohorting);
      }
      RunOp(report, "cold plan", [&] {
        const double t0 = NowMs();
        coign::FleetPlanResult plan;
        {
          ScopedSpan span("fleet.plan");
          plan = Need(service.Plan(in.profile, in.fleet), "cold plan");
        }
        cold_ms.Add(0, NowMs() - t0);
        SpanRecorder::Get().Enable(false);
        return plan.stats.plans_computed == plan.stats.cohorts && check(plan);
      });
      speed.Tick();
      for (int w = 0; w < kWarmReplans; ++w) {
        SpanRecorder::Get().Enable(traced);
        SpanRecorder::Get().SetOp(++op_id);
        RunOp(report, "warm replan", [&] {
          const double t0 = NowMs();
          coign::FleetPlanResult plan;
          {
            ScopedSpan span("fleet.replan");
            plan = Need(service.Plan(in.profile, in.fleet), "warm replan");
          }
          warm_ms.Add(static_cast<size_t>(w), NowMs() - t0);
          SpanRecorder::Get().Enable(false);
          return plan.stats.cache_hits == plan.stats.cohorts && check(plan);
        });
        speed.Tick();
      }
      if (peak_rss_mb == 0.0) {
        peak_rss_mb = PeakRssMb();
      }
    } while (NowMs() - start < budget_ms);
    SpanRecorder::Get().Enable(false);
  };

  const double budget_ms = options.seconds * 1000.0;
  Digest workload_digest;
  if (!options.trace) {
    run_cycles(budget_ms, false);
    // Clients planned per second of cold planning. With one cold-plan slot
    // the decision percentiles coincide.
    ReportEndToEnd(setup_s, peak_rss_mb, static_cast<double>(in.fleet.size()), cold_ms, cold_ms,
                   warm_ms, speed, report);
  }

  // Regret pass, untimed: cohort plans vs per-client optimal cuts.
  coign::FleetRegret regret;
  RunOp(report, "regret pass", [&] {
    coign::FleetServiceOptions regret_options = ServiceOptions(threads);
    regret_options.compute_regret = true;
    coign::FleetPartitionService service(regret_options);
    regret = Need(service.Plan(in.profile, in.regret_fleet), "regret plan").regret;
    return regret.max >= 0.0 && regret.mean <= regret.max;
  });

  if (options.trace) {
    run_cycles(budget_ms / 2, false);
    const double untraced_cold = cold_ms.SteadyPass();
    cold_ms.Clear();
    run_cycles(budget_ms / 2, true);
    const double overhead = 100.0 * (cold_ms.SteadyPass() / untraced_cold - 1.0);

    // Each cohort's analysis three ways, all checked against the plan: a
    // standalone Analyze, a cold replay layer by layer, and an Analyze on
    // one MinCutSession carried across the cohorts in plan order (the way
    // a service worker slot warm-starts its solves).
    SpanRecorder::Get().Enable(true);
    LayerCounts counts;
    coign::MinCutSession session;
    std::set<std::vector<std::pair<coign::ClassificationId, coign::MachineId>>> distinct;
    RunOp(report, "layer replay", [&] {
      const coign::ProfileAnalysisEngine engine;
      bool ok = true;
      for (const coign::CohortPlan& cohort : first_plan.plans) {
        SpanRecorder::Get().SetOp(++op_id);
        const coign::NetworkProfile pricing = CohortPricing(cohort.cohort);
        coign::AnalysisResult standalone;
        {
          ScopedSpan span("analysis.analyze");
          standalone = Need(engine.Analyze(in.profile, pricing), "analyze cohort");
        }
        const LayerCut cold = AnalyzeByLayer(in.profile, pricing);
        coign::AnalysisResult warm;
        {
          ScopedSpan span("mincut.warm_solve");
          warm = Need(engine.Analyze(in.profile, pricing, &session), "warm analyze cohort");
        }
        ok = ok && SameCut(cold, cohort.analysis) && SameCut(cold, standalone) &&
             warm.cut_value_units == cohort.analysis.cut_value_units &&
             SameDistribution(warm.distribution, cohort.analysis.distribution);
        counts.graph_nodes = cold.nodes;
        counts.graph_edges = cold.edges;
        distinct.emplace(cohort.analysis.distribution.placement.begin(),
                         cohort.analysis.distribution.placement.end());
      }
      return ok;
    });
    SpanRecorder::Get().Enable(false);

    // Serial cold plan, for the pool's speedup.
    double serial_ms = 0.0;
    RunOp(report, "serial plan", [&] {
      coign::FleetPartitionService serial(ServiceOptions(1));
      const double t0 = NowMs();
      const coign::FleetPlanResult plan = Need(serial.Plan(in.profile, in.fleet), "serial plan");
      serial_ms = NowMs() - t0;
      return PlanDigest(plan) == reference;
    });

    // Cache hit ratio over one service's cycle: a cold plan, then warm
    // replans.
    coign::FleetPartitionService cycle(ServiceOptions(threads));
    for (int i = 0; i <= kWarmReplans; ++i) {
      RunOp(report, "cache cycle", [&] {
        return PlanDigest(Need(cycle.Plan(in.profile, in.fleet), "plan")) == reference;
      });
    }

    const coign::MinCutSolveStats& cut = session.stats();
    counts.runtime_calls = static_cast<double>(in.calls);
    counts.profile_text_bytes = static_cast<double>(in.text_bytes);
    counts.mincut_pushes = static_cast<double>(cut.pushes);
    counts.mincut_relabels = static_cast<double>(cut.relabels);
    counts.mincut_global_relabels = static_cast<double>(cut.global_relabels);
    counts.fleet_cohorts = static_cast<double>(first_plan.stats.cohorts);
    counts.mincut_warm_hit_ratio =
        static_cast<double>(cut.warm_start_hits) / counts.fleet_cohorts;
    counts.fleet_plans_computed = static_cast<double>(first_plan.stats.plans_computed);
    counts.fleet_distinct_plans = static_cast<double>(distinct.size());
    counts.fleet_useful_solve_ratio = counts.fleet_distinct_plans / counts.fleet_plans_computed;
    counts.fleet_cache_hit_ratio = cycle.cache_stats().hit_rate();
    counts.fleet_regret_max_pct = 100.0 * regret.max;

    ReportCommonLayerTimes(overhead, report);
    ReportLayerCounts(counts, report);
    const SpanRecorder& spans = SpanRecorder::Get();
    report->Extra("sim.fleet_generate_ms", Median(spans.Durations("sim.fleet_generate")), "ms");
    report->Extra("fleet.fingerprint_ms", Median(spans.Durations("fleet.fingerprint")), "ms");
    report->Extra("fleet.cohort_ms", Median(spans.Durations("fleet.cohort")), "ms");
    report->Extra("fleet.plan_ms", Median(spans.Durations("fleet.plan")), "ms");
    report->Extra("fleet.pool_speedup", serial_ms / Median(spans.Durations("fleet.plan")), "x");
    report->Extra("mincut.warm_solve_ms", Median(spans.Durations("mincut.warm_solve")), "ms");
    report->Extra("fleet.regret_mean_pct", 100.0 * regret.mean, "%");
  }

  workload_digest.Mix(reference);
  workload_digest.Mix(regret.mean);
  workload_digest.Mix(regret.max);
  workload_digest.Mix(regret.p95);
  report->SetDigest(workload_digest);
}

}  // namespace perfbench
