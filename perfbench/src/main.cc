// coign_perfbench: runs one benchmark workload and prints its metrics.
//
//   coign_perfbench --workload pipeline|fleet|online --seed N --seconds S
//                   [--trace 0|1] [--short] [--expect-digest HEX]
//                   [--run-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and drives it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

void ReportEndToEnd(double setup_s, double peak_rss_mb, double ops_per_pass, const SlotTimes& ops,
                    const SlotTimes& decision, const SlotTimes& aux, const HostSpeed& speed,
                    Report* report) {
  const double scale = speed.Scale();
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  report->Metric("ops_per_s", 1000.0 * ops_per_pass / (ops.SteadyPass() * scale), "1/s");
  // Percentiles over the slots of a pass of their steady times.
  report->Metric("decision_ms.p50", Quantile(decision.Steady(), 0.5) * scale, "ms");
  report->Metric("decision_ms.p90", Quantile(decision.Steady(), 0.9) * scale, "ms");
  report->Metric("aux_ms.p50", Quantile(aux.Steady(), 0.5) * scale, "ms");
  report->Metric("aux_ms.p90", Quantile(aux.Steady(), 0.9) * scale, "ms");
  report->Extra("bench.calibration_ms", speed.SteadyMs(), "ms");
}

void ReportCommonLayerTimes(double trace_overhead_pct, Report* report) {
  const SpanRecorder& spans = SpanRecorder::Get();
  const auto median_of = [&spans](const char* name) { return Median(spans.Durations(name)); };
  report->Metric("runtime.instrument_ms", median_of("runtime.instrument"), "ms");
  report->Metric("runtime.profiling_run_ms", median_of("runtime.profiling_run"), "ms");
  report->Metric("profile.serialize_ms", median_of("profile.serialize"), "ms");
  report->Metric("profile.parse_ms", median_of("profile.parse"), "ms");
  report->Metric("graph.constraints_ms", median_of("graph.constraints"), "ms");
  report->Metric("graph.abstract_ms", median_of("graph.abstract"), "ms");
  report->Metric("graph.concrete_ms", median_of("graph.concrete"), "ms");
  report->Metric("mincut.csr_build_ms", median_of("mincut.csr_build"), "ms");
  report->Metric("mincut.solve_ms", median_of("mincut.solve"), "ms");
  report->Metric("analysis.analyze_ms", median_of("analysis.analyze"), "ms");
  // The engine's own share of Analyze: each Analyze span minus the layer
  // calls (constraints, graphs, CSR build, cold solve) of the cold replay
  // of the same analysis that follows it.
  std::vector<double> self_ms;
  const Span* analyze = nullptr;
  for (const Span& span : spans.spans()) {
    const std::string name = span.name;
    if (name == "analysis.analyze") {
      analyze = &span;
    } else if (name == "analysis.layers" && analyze != nullptr && analyze->op == span.op) {
      self_ms.push_back(analyze->duration_ms() - span.child_ms);
      analyze = nullptr;
    }
  }
  report->Metric("analysis.self_ms", Median(self_ms), "ms");
  report->Metric("bench.trace_overhead_pct", trace_overhead_pct, "%");

  for (const auto& [layer, ms] : spans.LayerSelfMs()) {
    std::printf("layer-self %s %.3f ms\n", layer.c_str(), ms);
  }
}

void ReportLayerCounts(const LayerCounts& c, Report* report) {
  report->Metric("runtime.calls", c.runtime_calls, "count");
  report->Metric("runtime.config_bytes", c.runtime_config_bytes, "bytes");
  report->Metric("profile.text_bytes", c.profile_text_bytes, "bytes");
  report->Metric("graph.nodes", c.graph_nodes, "count");
  report->Metric("graph.edges", c.graph_edges, "count");
  report->Metric("mincut.pushes", c.mincut_pushes, "count");
  report->Metric("mincut.relabels", c.mincut_relabels, "count");
  report->Metric("mincut.global_relabels", c.mincut_global_relabels, "count");
  report->Metric("mincut.warm_hit_ratio", c.mincut_warm_hit_ratio, "ratio");
  report->Metric("net.attempts_per_call", c.net_attempts_per_call, "ratio");
  report->Metric("net.retries", c.net_retries, "count");
  report->Metric("net.corrupt_rejected", c.net_corrupt_rejected, "count");
  report->Metric("net.undelivered", c.net_undelivered, "count");
  report->Metric("fault.injected", c.fault_injected, "count");
  report->Metric("fleet.cohorts", c.fleet_cohorts, "count");
  report->Metric("fleet.plans_computed", c.fleet_plans_computed, "count");
  report->Metric("fleet.distinct_plans", c.fleet_distinct_plans, "count");
  report->Metric("fleet.useful_solve_ratio", c.fleet_useful_solve_ratio, "ratio");
  report->Metric("fleet.cache_hit_ratio", c.fleet_cache_hit_ratio, "ratio");
  report->Metric("fleet.regret_max_pct", c.fleet_regret_max_pct, "%");
  report->Metric("online.evaluations", c.online_evaluations, "count");
  report->Metric("online.repartitions", c.online_repartitions, "count");
  report->Metric("online.recut_accept_ratio", c.online_recut_accept_ratio, "ratio");
  report->Metric("online.quarantined_epochs", c.online_quarantined_epochs, "count");
  report->Metric("online.moved_instances", c.online_moved_instances, "count");
  report->Metric("online.migration_bytes", c.online_migration_bytes, "bytes");
  report->Metric("online.mincut_pushes", c.online_mincut_pushes, "count");
}

bool RunOp(Report* report, const char* what, const std::function<bool()>& op) {
  report->Attempt();
  try {
    if (op()) {
      return true;
    }
    report->Fail(std::string(what) + ": output check failed");
  } catch (const OpError& error) {
    report->Fail(std::string(what) + ": " + error.what());
  }
  return false;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: coign_perfbench --workload pipeline|fleet|online --seed N "
               "--seconds S [--trace 0|1] [--short] [--expect-digest HEX] "
               "[--run-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--short") {
      options.short_mode = true;
    } else if (!has_value) {
      return Usage();
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--expect-digest") {
      options.expect_digest = argv[++i];
    } else if (flag == "--run-dir") {
      options.run_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0.0) {
    return Usage();
  }

  perfbench::Report report;
  try {
    if (options.workload == "pipeline") {
      perfbench::RunPipeline(options, &report);
    } else if (options.workload == "fleet") {
      perfbench::RunFleet(options, &report);
    } else if (options.workload == "online") {
      perfbench::RunOnline(options, &report);
    } else {
      return Usage();
    }
  } catch (const perfbench::OpError& error) {
    // Set-up failed: there is no run to report.
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.what());
    return 1;
  }
  if (options.trace) {
    const std::string path = options.run_dir + "/spans-" + options.workload + ".json";
    if (!perfbench::SpanRecorder::Get().WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans %s\n", path.c_str());
  }
  report.Print(options.expect_digest);
  return 0;
}
