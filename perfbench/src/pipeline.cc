// The pipeline workload: the paper's developer path, one closed-loop
// thread. For each Table 1 scenario, in seeded order: profile it through
// an instrumented image, serialize and parse the profile, analyze it
// 2-way against a seeded network preset, then realize the distribution
// through a configuration record and measure the distributed run. A
// 3-tier AnalyzeMultiway on the same profile is timed on its own.
//
// An operation is one scenario. Runs are whole passes over the 23
// scenarios, so every run weighs each scenario equally.

#include <algorithm>
#include <memory>

#include "perfbench/src/layers.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/analysis/multiway.h"
#include "src/apps/suite.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/multiway.h"
#include "src/net/network_profiler.h"
#include "src/profile/log_file.h"
#include "src/runtime/binary_rewriter.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;
constexpr size_t kShortScenarios = 3;
// Every scenario runs on the same content on every seed, as the repo's
// benches fix their scenario seeds; the benchmark seed orders the
// scenarios, picks each one's network preset and fits the presets. A
// scenario's content sets its profile's size, which spans about 2x across
// scenario seeds, so a seeded content moved the median scenario's parse +
// Analyze time by up to a quarter from seed to seed.
constexpr uint64_t kScenarioSeed = 1;

struct Item {
  coign::Application* app = nullptr;
  coign::Scenario scenario;
  size_t network = 0;  // Index into Inputs::models / fitted.
};

struct Inputs {
  std::vector<std::unique_ptr<coign::Application>> apps;
  std::vector<Item> items;
  std::vector<coign::NetworkModel> models;
  std::vector<coign::NetworkProfile> fitted;
};

Inputs Setup(uint64_t seed, bool short_mode) {
  Inputs in;
  in.apps = coign::BuildApplicationSuite();  // Octarine, PhotoDraw, Benefits.
  in.models = {coign::NetworkModel::Isdn(), coign::NetworkModel::TenBaseT(),
               coign::NetworkModel::HundredBaseT(), coign::NetworkModel::Atm155(),
               coign::NetworkModel::San()};
  for (size_t i = 0; i < in.models.size(); ++i) {
    ScopedSpan span("net.fit");
    coign::Rng fit_rng(seed * 31 + i);
    in.fitted.push_back(
        coign::NetworkProfiler().Profile(coign::Transport(in.models[i]), fit_rng));
  }

  std::vector<std::string> ids = coign::Table1ScenarioIds();
  coign::Rng rng(seed);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  for (const std::string& id : ids) {
    Item item;
    const size_t app_index = id[0] == 'o' ? 0 : id[0] == 'p' ? 1 : 2;
    item.app = in.apps[app_index].get();
    item.scenario = Need(item.app->FindScenario(id), "find scenario");
    item.network = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(in.models.size()) - 1));
    in.items.push_back(std::move(item));
  }
  if (short_mode) {
    in.items.resize(kShortScenarios);
  }
  return in;
}

coign::MultiwayOptions ThreeTier() {
  coign::MultiwayOptions options;
  options.machine_count = 3;
  options.gui_machine = 0;
  options.storage_machine = 2;
  return options;
}

// One scenario through the developer path.
struct OpResult {
  ProfiledRun profiled;
  std::string text;
  coign::IccProfile parsed;
  coign::AnalysisResult analysis;
  coign::ConfigurationRecord config;
  size_t config_bytes = 0;
  coign::RunMeasurement measured;
  coign::MultiwayAnalysisResult tier3;
  double op_ms = 0.0;        // Profile through measure.
  double decision_ms = 0.0;  // ParseProfile + Analyze.
  double tier3_ms = 0.0;     // AnalyzeMultiway, 3 machines.
};

OpResult RunScenario(const Inputs& in, const Item& item, bool with_tier3) {
  OpResult r;
  const coign::NetworkProfile& fitted = in.fitted[item.network];
  const coign::ProfileAnalysisEngine engine;
  const coign::BinaryRewriter rewriter;

  const double start = NowMs();
  r.profiled = ProfileScenarios(*item.app, {item.scenario.id}, kScenarioSeed);
  {
    ScopedSpan span("profile.serialize");
    r.text = coign::SerializeProfile(r.profiled.profile);
  }
  const double decision_start = NowMs();
  {
    ScopedSpan span("profile.parse");
    r.parsed = Need(coign::ParseProfile(r.text), "parse profile");
  }
  {
    ScopedSpan span("analysis.analyze");
    r.analysis = Need(engine.Analyze(r.parsed, fitted), "analyze");
  }
  r.decision_ms = NowMs() - decision_start;
  {
    ScopedSpan span("runtime.config_codec");
    const coign::ApplicationImage shipped =
        Need(rewriter.WriteDistribution(r.profiled.instrumented, r.analysis.distribution, r.text,
                                        r.profiled.classifier_table),
             "write distribution");
    r.config_bytes = shipped.config_segment->size();
    r.config = Need(shipped.ReadConfig(), "read configuration");
  }
  {
    ScopedSpan span("sim.measure");
    coign::ObjectSystem system;
    Need(item.app->Install(&system), "install");
    coign::CoignRuntime runtime(&system, r.config);
    runtime.BeginScenario();
    coign::MeasurementOptions measure;
    measure.network = in.models[item.network];
    coign::Rng rng(kScenarioSeed);
    r.measured = Need(coign::MeasureRun(
                          system,
                          [&](coign::ObjectSystem& sys) { return item.scenario.run(sys, rng); },
                          measure),
                      "measure distributed run");
  }
  r.op_ms = NowMs() - start;
  if (!with_tier3) {
    return r;
  }

  const double tier3_start = NowMs();
  {
    ScopedSpan span("analysis.multiway");
    r.tier3 = Need(coign::AnalyzeMultiway(r.parsed, fitted, ThreeTier()), "analyze multiway");
  }
  r.tier3_ms = NowMs() - tier3_start;
  return r;
}

// Set-up ends with one untimed pass of the developer path, so lazy
// initialization and caches are warm before timing starts.
Inputs SetupAndWarm(uint64_t seed, bool short_mode) {
  Inputs in = Setup(seed, short_mode);
  SpanRecorder& spans = SpanRecorder::Get();
  const bool traced = spans.enabled();
  spans.Enable(false);  // The warm-up's spans would skew the layer medians.
  for (const Item& item : in.items) {
    (void)RunScenario(in, item, /*with_tier3=*/false);
  }
  spans.Enable(traced);
  return in;
}

uint64_t OpDigest(const OpResult& r) {
  Digest digest;
  MixProfile(&digest, r.parsed);
  MixAnalysis(&digest, r.analysis);
  digest.Mix(r.measured);
  digest.Mix(r.tier3.distribution);
  digest.Mix(r.tier3.crossing_seconds);
  return digest.value();
}

// True when two profile texts hold the same lines. SerializeProfile
// writes call records in hash-map order, which a parse can permute, so
// the round trip is compared record by record.
bool SameRecords(const std::string& a, const std::string& b) {
  const auto lines = [](const std::string& text) {
    std::vector<std::string_view> out;
    size_t begin = 0;
    while (begin < text.size()) {
      size_t end = text.find('\n', begin);
      if (end == std::string::npos) {
        end = text.size();
      }
      out.emplace_back(text.data() + begin, end - begin);
      begin = end + 1;
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return lines(a) == lines(b);
}

// Checks run once per scenario, outside the timed window. Counts the
// scenarios whose profile re-serializes byte for byte.
bool CheckScenario(const Inputs& in, const Item& item, const OpResult& r,
                   uint64_t* byte_identical) {
  const std::string again = coign::SerializeProfile(r.parsed);
  *byte_identical += again == r.text ? 1 : 0;
  Digest profiled;
  Digest parsed;
  MixProfile(&profiled, r.profiled.profile, false);
  MixProfile(&parsed, r.parsed, false);
  if (!SameRecords(again, r.text) || profiled.value() != parsed.value()) {
    return false;
  }
  const coign::ProfileAnalysisEngine oracle(
      coign::AnalysisOptions{coign::CutAlgorithm::kRelabelToFront, {}, true});
  const coign::AnalysisResult expected =
      Need(oracle.Analyze(r.parsed, in.fitted[item.network]), "oracle analyze");
  return expected.cut_value_units == r.analysis.cut_value_units &&
         SameDistribution(expected.distribution, r.analysis.distribution) &&
         SameDistribution(r.config.distribution, r.analysis.distribution);
}

// The 3-tier analysis split into its graph build and its isolation cut,
// built the way AnalyzeMultiway builds it. Returns false if the cut's
// assignment differs from AnalyzeMultiway's.
bool MultiwayByLayer(const coign::IccProfile& profile, const coign::NetworkProfile& network,
                     const coign::MultiwayAnalysisResult& expected) {
  const coign::MultiwayOptions options = ThreeTier();
  const int k = options.machine_count;
  const std::vector<coign::ClassificationId> ids = profile.SortedClassificationIds();
  coign::EdgeList edges;
  {
    ScopedSpan span("analysis.multiway_graph");
    std::unordered_map<coign::ClassificationId, int> index;
    for (size_t i = 0; i < ids.size(); ++i) {
      index.emplace(ids[i], k + static_cast<int>(i));
    }
    const auto node_of = [&](coign::ClassificationId id) {
      const auto it = index.find(id);
      return it == index.end() ? options.gui_machine : it->second;
    };
    const coign::AbstractIccGraph abstract = coign::AbstractIccGraph::FromProfile(profile);
    for (const coign::AbstractIccGraph::PairKey& pair : abstract.SortedPairs()) {
      const coign::AbstractIccGraph::Edge& edge = abstract.edges().at(pair);
      const int a = node_of(pair.a);
      const int b = node_of(pair.b);
      if (a == b) {
        continue;
      }
      edges.emplace_back(a, b, coign::SecondsToCapUnits(coign::EdgeSeconds(edge, network)));
      if (edge.MustColocate()) {
        edges.emplace_back(a, b, coign::kInfiniteCapacity);
      }
    }
    for (coign::ClassificationId id : ids) {
      const coign::ClassificationInfo* info = profile.FindClassification(id);
      if (info->api_usage & coign::kApiGui) {
        edges.emplace_back(options.gui_machine, index.at(id), coign::kInfiniteCapacity);
      } else if (info->api_usage & (coign::kApiStorage | coign::kApiOdbc)) {
        edges.emplace_back(options.storage_machine, index.at(id), coign::kInfiniteCapacity);
      }
    }
  }
  coign::MultiwayCutResult cut;
  {
    ScopedSpan span("mincut.isolation_cut");
    cut = coign::MultiwayCutIsolation(k + static_cast<int>(ids.size()), edges, {0, 1, 2});
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (expected.distribution.MachineFor(ids[i]) != cut.assignment[static_cast<size_t>(k) + i]) {
      return false;
    }
  }
  return true;
}

// Traced-only work after an operation: Analyze layer by layer, the 3-tier
// cut split, and the plain and distributed runs the runtime slowdowns are
// measured against.
bool TraceScenario(const Inputs& in, const Item& item, const OpResult& r, LayerCounts* counts) {
  const coign::NetworkProfile& fitted = in.fitted[item.network];
  const LayerCut layered = AnalyzeByLayer(r.parsed, fitted);
  counts->graph_nodes = std::max<double>(counts->graph_nodes, layered.nodes);
  counts->graph_edges = std::max<double>(counts->graph_edges, layered.edges);
  counts->mincut_pushes += static_cast<double>(layered.stats.pushes);
  counts->mincut_relabels += static_cast<double>(layered.stats.relabels);
  counts->mincut_global_relabels += static_cast<double>(layered.stats.global_relabels);
  counts->runtime_calls += static_cast<double>(r.profiled.calls);
  counts->runtime_config_bytes += static_cast<double>(r.config_bytes);
  counts->profile_text_bytes += static_cast<double>(r.text.size());

  {
    coign::ObjectSystem system;
    Need(item.app->Install(&system), "install");
    coign::Rng rng(kScenarioSeed);
    ScopedSpan span("runtime.plain_run");
    Need(item.scenario.run(system, rng), "plain run");
    system.DestroyAll();
  }
  {
    coign::ObjectSystem system;
    Need(item.app->Install(&system), "install");
    coign::CoignRuntime runtime(&system, r.config);
    coign::Rng rng(kScenarioSeed);
    ScopedSpan span("runtime.distributed_run");
    runtime.BeginScenario();
    Need(item.scenario.run(system, rng), "distributed run");
    system.DestroyAll();
  }
  return SameCut(layered, r.analysis) && MultiwayByLayer(r.parsed, fitted, r.tier3);
}

// Per-scenario times; slot i is the i-th scenario of a pass.
struct Samples {
  SlotTimes op_ms;
  SlotTimes decision_ms;
  SlotTimes tier3_ms;
};

}  // namespace

void RunPipeline(const Options& options, Report* report) {
  double setup_s = 0.0;
  HostSpeed speed;
  SpanRecorder::Get().Enable(options.trace);
  Inputs in = TimedSetup(
      options.short_mode ? 1 : kSetupRepeats,
      [&] { return SetupAndWarm(options.seed, options.short_mode); }, &speed, &setup_s);

  // Digest of each scenario's outputs in the first pass; every later pass
  // must reproduce them.
  std::vector<uint64_t> reference;
  Digest workload_digest;
  LayerCounts counts;
  uint64_t op_id = 0;
  uint64_t byte_identical = 0;
  double peak_rss_mb = 0.0;

  const auto run_passes = [&](double budget_ms, bool traced, Samples* samples) {
    SpanRecorder::Get().Enable(traced);
    bool first_traced_pass = traced;
    const double start = NowMs();
    do {
      for (size_t i = 0; i < in.items.size(); ++i) {
        const Item& item = in.items[i];
        SpanRecorder::Get().SetOp(++op_id);
        RunOp(report, item.scenario.id.c_str(), [&] {
          const OpResult r = RunScenario(in, item, /*with_tier3=*/true);
          samples->op_ms.Add(i, r.op_ms);
          samples->decision_ms.Add(i, r.decision_ms);
          samples->tier3_ms.Add(i, r.tier3_ms);
          bool ok = true;
          if (traced) {
            LayerCounts scratch;
            ok = TraceScenario(in, item, r, first_traced_pass ? &counts : &scratch);
          }
          const uint64_t digest = OpDigest(r);
          if (reference.size() <= i) {
            reference.push_back(digest);
            workload_digest.Mix(digest);
            return ok && CheckScenario(in, item, r, &byte_identical);
          }
          return ok && digest == reference[i];
        });
        speed.Tick();
      }
      first_traced_pass = false;
      if (peak_rss_mb == 0.0) {
        peak_rss_mb = PeakRssMb();
      }
    } while (NowMs() - start < budget_ms);
    SpanRecorder::Get().Enable(false);
  };

  const double budget_ms = options.seconds * 1000.0;
  Samples timed;
  if (!options.trace) {
    run_passes(budget_ms, false, &timed);
    ReportEndToEnd(setup_s, peak_rss_mb, static_cast<double>(in.items.size()), timed.op_ms,
                   timed.decision_ms, timed.tier3_ms, speed, report);
  } else {
    // Half the time untraced, half traced: the same whole passes, so the
    // steady pass times compare like with like.
    run_passes(budget_ms / 2, false, &timed);
    Samples traced;
    run_passes(budget_ms / 2, true, &traced);
    const double overhead =
        100.0 * (traced.op_ms.SteadyPass() / timed.op_ms.SteadyPass() - 1.0);
    ReportCommonLayerTimes(overhead, report);
    ReportLayerCounts(counts, report);

    const SpanRecorder& spans = SpanRecorder::Get();
    const auto total = [&spans](const char* name) {
      double sum = 0.0;
      for (double ms : spans.Durations(name)) {
        sum += ms;
      }
      return sum;
    };
    const double plain = total("runtime.plain_run");
    report->Extra("runtime.plain_run_ms", Median(spans.Durations("runtime.plain_run")), "ms");
    report->Extra("runtime.distributed_run_ms",
                  Median(spans.Durations("runtime.distributed_run")), "ms");
    // Over the traced passes: profiling and distributed runs vs plain runs
    // of the same scenarios.
    report->Extra("runtime.profiling_slowdown", total("runtime.profiling_run") / plain, "x");
    report->Extra("runtime.distributed_slowdown", total("runtime.distributed_run") / plain, "x");
    report->Extra("runtime.config_codec_ms", Median(spans.Durations("runtime.config_codec")),
                  "ms");
    report->Extra("sim.measure_ms", Median(spans.Durations("sim.measure")), "ms");
    report->Extra("net.fit_ms", Median(spans.Durations("net.fit")), "ms");
    report->Extra("analysis.multiway_ms", Median(spans.Durations("analysis.multiway")), "ms");
    report->Extra("profile.reserialized_identical", static_cast<double>(byte_identical),
                  "count");
    report->Extra("mincut.isolation_cut_ms", Median(spans.Durations("mincut.isolation_cut")),
                  "ms");
  }
  report->SetDigest(workload_digest);
}

}  // namespace perfbench
