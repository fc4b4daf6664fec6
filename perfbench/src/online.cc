// The online workload: one closed-loop thread driving the online
// repartitioner's epoch loop by hand. Octarine is profiled on text
// scenarios and ships the text-optimal cut; the phases then cycle text and
// table-heavy scenarios (o_oldwp3, o_mixed9, o_oldtb3) under a seeded
// random fault schedule with mild loss and corruption, with quarantine and
// a journaled migration on. Each epoch is Scenario::run, then
// OnlineRepartitioner::EndEpoch, exactly as MeasureOnlineRun drives them.
//
// An operation is one epoch. Runs are whole passes over the phase list,
// each on a fresh system, so every pass repeats the same simulated run.

#include <cstdio>
#include <memory>

#include "perfbench/src/layers.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/apps/octarine.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/injector.h"
#include "src/net/network_profiler.h"
#include "src/obs/obs.h"
#include "src/online/measure_online.h"
#include "src/profile/log_file.h"
#include "src/runtime/binary_rewriter.h"
#include "src/sim/accountant.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;
// Epochs per visit of each phase. The table-heavy phases re-cut on about
// half their epochs and the text phase on its first one only, so about a
// fifth of all epochs re-cut (evaluate a new cut, ~3 ms) and the rest check
// drift (~0.4 ms) or sit in quarantine (~0.05 ms). The median stall is then
// a drift-only epoch and the 90th percentile a re-cut one. The run checks
// that the re-cut share stays within kRecutShare.
constexpr int kTextEpochs = 16;
constexpr int kTableEpochs = 4;
constexpr int kCycles = 3;
constexpr double kRecutShare[2] = {0.125, 0.45};

struct Inputs {
  std::unique_ptr<coign::Application> app;
  coign::IccProfile base;  // The shipped cut's profile, parsed from its log.
  coign::ConfigurationRecord config;
  coign::OnlineMeasurementOptions measure;  // Everything but the fault model.
  std::vector<coign::OnlinePhase> workload;
  std::vector<coign::Scenario> scenarios;  // One per phase.
  coign::FaultSchedule schedule;
  coign::FaultRates background;
  uint64_t injector_seed = 0;
  // Set-up facts for the layer counts.
  uint64_t profiling_calls = 0;
  size_t text_bytes = 0;
  size_t config_bytes = 0;
  int graph_nodes = 0;
  int graph_edges = 0;
};

Inputs Setup(const Options& options) {
  Inputs in;
  in.app = coign::MakeOctarine();
  const ProfiledRun profiled =
      ProfileScenarios(*in.app, {"o_oldwp0", "o_oldwp3", "o_oldwp7"}, options.seed);
  in.profiling_calls = profiled.calls;
  std::string text;
  {
    ScopedSpan span("profile.serialize");
    text = coign::SerializeProfile(profiled.profile);
  }
  in.text_bytes = text.size();
  {
    ScopedSpan span("profile.parse");
    in.base = Need(coign::ParseProfile(text), "parse profile");
  }

  const coign::NetworkModel network = coign::NetworkModel::TenBaseT();
  in.measure.network = network;
  {
    ScopedSpan span("net.fit");
    coign::Rng fit_rng(options.seed);
    in.measure.fitted = coign::NetworkProfiler().Profile(coign::Transport(network), fit_rng);
  }
  coign::AnalysisResult shipped_cut;
  {
    ScopedSpan span("analysis.analyze");
    shipped_cut = Need(coign::ProfileAnalysisEngine().Analyze(in.base, in.measure.fitted),
                       "analyze");
  }
  if (SpanRecorder::Get().enabled()) {
    const LayerCut layered = AnalyzeByLayer(in.base, in.measure.fitted);
    if (!SameCut(layered, shipped_cut)) {
      throw OpError("layer-by-layer cut differs from Analyze");
    }
    in.graph_nodes = layered.nodes;
    in.graph_edges = layered.edges;
  }
  {
    ScopedSpan span("runtime.config_codec");
    const coign::ApplicationImage shipped = Need(
        coign::BinaryRewriter().WriteDistribution(profiled.instrumented, shipped_cut.distribution,
                                                  text, profiled.classifier_table),
        "write distribution");
    in.config_bytes = shipped.config_segment->size();
    in.config = Need(shipped.ReadConfig(), "read configuration");
  }

  in.measure.online.quarantine.enabled = true;
  in.measure.online.journal_path = options.run_dir + "/online-migration.journal";
  in.measure.retry = coign::SuggestedRetryPolicy(network);
  in.measure.scenario_seed = options.seed;
  const int scale = options.short_mode ? 4 : 1;
  for (int cycle = 0; cycle < (options.short_mode ? 1 : kCycles); ++cycle) {
    in.workload.push_back({"o_oldwp3", kTextEpochs / scale});
    in.workload.push_back({"o_mixed9", kTableEpochs / scale});
    in.workload.push_back({"o_oldtb3", kTableEpochs / scale});
  }
  for (const coign::OnlinePhase& phase : in.workload) {
    in.scenarios.push_back(Need(in.app->FindScenario(phase.scenario_id), "find scenario"));
  }

  // The fault-free static run sizes the schedule horizon in modeled time.
  coign::OnlineMeasurementOptions clean = in.measure;
  clean.adaptive = false;
  const coign::OnlineRunResult clean_run =
      Need(coign::MeasureOnlineRun(*in.app, in.workload, in.config, in.base, clean),
           "fault-free static run");
  coign::RandomFaultOptions faults;
  faults.horizon_seconds = clean_run.run.execution_seconds;
  // Short, mild episodes: quarantine keeps to a few epochs on any seed, so
  // it cannot starve the re-cut epochs the stall percentiles measure.
  faults.mean_duration_seconds = faults.horizon_seconds / 48.0;
  faults.drop_burst_max = 0.1;
  faults.duplicate_burst_max = 0.05;
  faults.reorder_burst_max = 0.05;
  faults.latency_spike_max = 1.5;
  faults.bandwidth_drop_max = 1.5;
  faults.include_partitions = false;
  faults.include_crashes = false;
  faults.ge_loss_bad_max = 0.2;
  faults.corrupt_burst_max = 0.2;
  in.schedule = coign::FaultSchedule::Random(faults, options.seed);
  in.background.drop = 0.005;
  in.injector_seed = options.seed + 1;
  return in;
}

struct Pass {
  coign::OnlineRunResult result;
  coign::FaultStats faults;
  uint64_t runtime_calls = 0;
  // The policy session's solver work, from the Observability metrics
  // registry (traced passes only).
  double mincut_pushes = 0;
  double mincut_relabels = 0;
  double mincut_global_relabels = 0;
  double mincut_warm_hits = 0;
  std::vector<double> epoch_ms;  // Whole epoch, per epoch.
  std::vector<double> serve_ms;  // Scenario::run per epoch.
  std::vector<double> stall_ms;  // EndEpoch per epoch.
  int recut_epochs = 0;          // Epochs that evaluated a new cut.
};

// One online run, driven epoch by epoch. Mirrors MeasureOnlineRun's
// wiring for a faulted adaptive run.
Pass RunPass(const Inputs& in, coign::Observability* obs, Report* report, uint64_t* op_id) {
  // Every pass is a fresh deployment: no journal left by an earlier one.
  std::remove(in.measure.online.journal_path.c_str());
  Pass pass;
  coign::FaultInjector injector(in.schedule, in.background, in.injector_seed);
  injector.SetObservability(obs);
  coign::ObjectSystem system;
  Need(in.app->Install(&system), "install");
  coign::CoignRuntime runtime(&system, in.config);
  coign::NetworkAccountant accountant(&system, coign::Transport(in.measure.network));
  accountant.transport().SetChecksums(true);
  accountant.AttachFaults(&injector, in.measure.retry);
  if (obs != nullptr) {
    obs->tracer().SetClock([&accountant] { return accountant.execution_seconds(); });
    accountant.transport().SetObservability(obs);
  }
  struct ClockGuard {
    coign::Observability* obs;
    ~ClockGuard() {
      if (obs != nullptr) {
        obs->tracer().SetClock(nullptr);
      }
    }
  } clock_guard{obs};
  coign::OnlineRepartitioner repartitioner(&system, &runtime, in.base, in.measure.fitted,
                                           in.measure.online);
  repartitioner.SetObservability(obs);
  repartitioner.SetTransportProbe([&accountant] { return accountant.health(); });
  repartitioner.SetMigrationTransport(&accountant.transport(), nullptr);
  repartitioner.SetMigrationCharge([&accountant](uint64_t bytes, double seconds) {
    accountant.ChargeMigrationReceipts(bytes, seconds);
  });

  coign::Rng rng(in.measure.scenario_seed);
  for (size_t p = 0; p < in.workload.size(); ++p) {
    const coign::Scenario& scenario = in.scenarios[p];
    for (int rep = 0; rep < in.workload[p].repetitions; ++rep) {
      SpanRecorder::Get().SetOp(++*op_id);
      RunOp(report, scenario.id.c_str(), [&] {
        const double t0 = NowMs();
        runtime.BeginScenario();
        {
          ScopedSpan span("online.serve");
          Need(scenario.run(system, rng), "scenario run");
        }
        const double t1 = NowMs();
        {
          ScopedSpan span("online.end_epoch");
          const uint64_t evaluations = repartitioner.stats().evaluations;
          Need(repartitioner.EndEpoch(), "end epoch");
          pass.recut_epochs += repartitioner.stats().evaluations > evaluations ? 1 : 0;
        }
        pass.stall_ms.push_back(NowMs() - t1);
        pass.serve_ms.push_back(t1 - t0);
        system.DestroyAll();
        pass.epoch_ms.push_back(NowMs() - t0);
        return true;
      });
    }
  }

  coign::OnlineRunResult& result = pass.result;
  result.run.communication_seconds = accountant.communication_seconds();
  result.run.compute_seconds = accountant.compute_seconds();
  result.run.execution_seconds = accountant.execution_seconds();
  result.run.total_calls = accountant.total_calls();
  result.run.remote_calls = accountant.remote_calls();
  result.run.remote_bytes = accountant.remote_bytes();
  result.transport = accountant.health();
  result.final_distribution = runtime.config().distribution;
  result.online = repartitioner.stats();
  result.final_drift = repartitioner.last_drift();
  pass.faults = injector.stats();
  pass.runtime_calls = runtime.calls_observed();
  if (obs != nullptr) {
    const auto counter = [obs](const char* name) {
      return static_cast<double>(obs->metrics().GetCounter(name)->value());
    };
    pass.mincut_pushes = counter("mincut.pushes");
    pass.mincut_relabels = counter("mincut.relabels");
    pass.mincut_global_relabels = counter("mincut.global_relabels");
    pass.mincut_warm_hits = counter("mincut.warm_start_hits");
  }
  return pass;
}

// Every simulated number an online run reports.
uint64_t RunDigest(const coign::OnlineRunResult& r) {
  Digest digest;
  digest.Mix(r.run);
  const coign::OnlineStats& s = r.online;
  for (uint64_t value :
       {s.epochs, s.drift_flags, s.evaluations, s.repartitions, s.lazy_adoptions,
        s.hysteresis_rejections, s.cost_rejections, s.instances_moved, s.migration_bytes,
        s.fault_episodes, s.quarantined_epochs, s.interrupted_migrations, s.migration_resumes,
        s.migration_rollbacks, s.migration_wasted_bytes, s.duplicates_suppressed,
        s.breaker_trips, s.breaker_reopens, s.safe_mode_entries, s.safe_mode_exits,
        s.safe_mode_epochs}) {
    digest.Mix(value);
  }
  digest.Mix(s.migration_seconds);
  digest.Mix(s.live_slowdown);
  const coign::TransportHealth& t = r.transport;
  for (uint64_t value : {t.calls, t.attempts, t.retries, t.undelivered, t.faulted_calls,
                         t.wire_bytes, t.duplicates_suppressed, t.corrupt_rejected,
                         t.corrupt_consumed}) {
    digest.Mix(value);
  }
  digest.Mix(t.wire_seconds);
  digest.Mix(t.wire_latency_seconds);
  digest.Mix(t.wire_payload_seconds);
  digest.Mix(r.final_distribution);
  digest.Mix(r.final_drift.similarity);
  digest.Mix(r.final_drift.observed_messages);
  digest.Mix(r.final_drift.unprofiled_fraction);
  return digest.value();
}

}  // namespace

void RunOnline(const Options& options, Report* report) {
  double setup_s = 0.0;
  HostSpeed speed;
  SpanRecorder::Get().Enable(options.trace);
  Inputs in = TimedSetup(options.short_mode ? 1 : kSetupRepeats,
                         [&] { return Setup(options); }, &speed, &setup_s);
  SpanRecorder::Get().Enable(false);

  // The reference: the library's own harness on the same inputs. Every
  // hand-driven pass must reproduce it exactly.
  uint64_t reference = 0;
  RunOp(report, "MeasureOnlineRun", [&] {
    std::remove(in.measure.online.journal_path.c_str());
    coign::FaultInjector injector(in.schedule, in.background, in.injector_seed);
    coign::OnlineMeasurementOptions measure = in.measure;
    measure.faults = &injector;
    reference = RunDigest(
        Need(coign::MeasureOnlineRun(*in.app, in.workload, in.config, in.base, measure),
             "MeasureOnlineRun"));
    return true;
  });

  uint64_t op_id = 0;
  // Slot k is the k-th epoch of a pass.
  SlotTimes epoch_ms;
  SlotTimes serve_ms;
  SlotTimes stall_ms;
  double peak_rss_mb = 0.0;
  double recut_share = -1.0;  // Of the first pass.
  const auto run_passes = [&](double budget_ms, bool traced, Pass* first) {
    SpanRecorder::Get().Enable(traced);
    const double start = NowMs();
    bool have_first = false;
    do {
      // A fresh registry per traced pass, so its counters are one pass's.
      std::unique_ptr<coign::Observability> obs =
          traced ? std::make_unique<coign::Observability>() : nullptr;
      Pass pass = RunPass(in, obs.get(), report, &op_id);
      speed.Tick();
      for (size_t k = 0; k < pass.epoch_ms.size(); ++k) {
        epoch_ms.Add(k, pass.epoch_ms[k]);
        serve_ms.Add(k, pass.serve_ms[k]);
        stall_ms.Add(k, pass.stall_ms[k]);
      }
      if (peak_rss_mb == 0.0) {
        peak_rss_mb = PeakRssMb();
      }
      SpanRecorder::Get().Enable(false);
      RunOp(report, "online run check", [&] { return RunDigest(pass.result) == reference; });
      if (recut_share < 0.0) {
        recut_share = static_cast<double>(pass.recut_epochs) /
                      static_cast<double>(pass.stall_ms.size());
        // The stall percentiles measure what they claim only inside this
        // band; the short self-test pass is too small to hold it.
        RunOp(report, "re-cut epoch share", [&] {
          return options.short_mode ||
                 (recut_share >= kRecutShare[0] && recut_share <= kRecutShare[1]);
        });
      }
      SpanRecorder::Get().Enable(traced);
      if (!have_first && first != nullptr) {
        have_first = true;
        *first = std::move(pass);
      }
    } while (NowMs() - start < budget_ms);
    SpanRecorder::Get().Enable(false);
  };

  const double budget_ms = options.seconds * 1000.0;
  if (!options.trace) {
    run_passes(budget_ms, false, nullptr);
    ReportEndToEnd(setup_s, peak_rss_mb, static_cast<double>(epoch_ms.slots()), epoch_ms,
                   stall_ms, serve_ms, speed, report);
  } else {
    run_passes(budget_ms / 2, false, nullptr);
    const double untraced = epoch_ms.SteadyPass();
    epoch_ms.Clear();
    Pass first;
    run_passes(budget_ms / 2, true, &first);
    const double overhead = 100.0 * (epoch_ms.SteadyPass() / untraced - 1.0);
    ReportCommonLayerTimes(overhead, report);

    const coign::OnlineStats& stats = first.result.online;
    const coign::TransportHealth& health = first.result.transport;
    LayerCounts counts;
    counts.runtime_calls = static_cast<double>(in.profiling_calls + first.runtime_calls);
    counts.runtime_config_bytes = static_cast<double>(in.config_bytes);
    counts.profile_text_bytes = static_cast<double>(in.text_bytes);
    counts.graph_nodes = in.graph_nodes;
    counts.graph_edges = in.graph_edges;
    counts.mincut_pushes = first.mincut_pushes;
    counts.mincut_relabels = first.mincut_relabels;
    counts.mincut_global_relabels = first.mincut_global_relabels;
    counts.mincut_warm_hit_ratio =
        stats.evaluations == 0 ? 0.0
                               : first.mincut_warm_hits / static_cast<double>(stats.evaluations);
    counts.net_attempts_per_call =
        health.calls == 0 ? 0.0
                          : static_cast<double>(health.attempts) / static_cast<double>(health.calls);
    counts.net_retries = static_cast<double>(health.retries);
    counts.net_corrupt_rejected = static_cast<double>(health.corrupt_rejected);
    counts.net_undelivered = static_cast<double>(health.undelivered);
    counts.fault_injected = static_cast<double>(first.faults.total_faulted());
    counts.online_evaluations = static_cast<double>(stats.evaluations);
    counts.online_repartitions = static_cast<double>(stats.repartitions);
    counts.online_recut_accept_ratio =
        stats.evaluations == 0 ? 0.0
                               : static_cast<double>(stats.repartitions) /
                                     static_cast<double>(stats.evaluations);
    counts.online_quarantined_epochs = static_cast<double>(stats.quarantined_epochs);
    counts.online_moved_instances = static_cast<double>(stats.instances_moved);
    counts.online_migration_bytes = static_cast<double>(stats.migration_bytes);
    counts.online_mincut_pushes = first.mincut_pushes;
    ReportLayerCounts(counts, report);

    const SpanRecorder& spans = SpanRecorder::Get();
    report->Extra("online.serve_ms", Median(spans.Durations("online.serve")), "ms");
    report->Extra("online.end_epoch_ms", Median(spans.Durations("online.end_epoch")), "ms");
    report->Extra("online.exec_s", first.result.run.execution_seconds, "s");
    report->Extra("online.epochs", static_cast<double>(stats.epochs), "count");
    report->Extra("net.fit_ms", Median(spans.Durations("net.fit")), "ms");
    report->Extra("runtime.config_codec_ms", Median(spans.Durations("runtime.config_codec")),
                  "ms");
  }
  report->Extra("online.recut_epoch_share", recut_share, "ratio");
  std::remove(in.measure.online.journal_path.c_str());
  Digest digest;
  digest.Mix(reference);
  report->SetDigest(digest);
}

}  // namespace perfbench
