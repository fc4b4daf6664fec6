// The three benchmark workloads. Each runs in its own process, fills the
// report with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run), and counts operations attempted and failed.
//
//   pipeline  the developer path over the 23 Table 1 scenarios: profile,
//             serialize + parse, analyze, realize and measure; plus a
//             3-tier multiway cut timed on its own.
//   fleet     cold and warm FleetPartitionService plans for a seeded
//             fleet of ~200k clients, lossy clients included.
//   online    a hand-driven online repartitioning loop over text and
//             table phases under a seeded fault schedule.

#ifndef COIGN_PERFBENCH_SRC_WORKLOADS_H_
#define COIGN_PERFBENCH_SRC_WORKLOADS_H_

#include <functional>

#include "perfbench/src/common.h"

namespace perfbench {

void RunPipeline(const Options& options, Report* report);
void RunFleet(const Options& options, Report* report);
void RunOnline(const Options& options, Report* report);

// Reports the end-to-end metrics of an untraced run. A pass holds
// `ops_per_pass` operations whose slots are `ops`; `decision` and `aux`
// hold each workload's two timed steps (see perfbench/README.md). Times
// are steady slot times in the host's calibrated units; `setup_s` comes
// calibrated from TimedSetup.
void ReportEndToEnd(double setup_s, double peak_rss_mb, double ops_per_pass, const SlotTimes& ops,
                    const SlotTimes& decision, const SlotTimes& aux, const HostSpeed& speed,
                    Report* report);

// Per-layer metrics every traced run reports, from its spans: the median
// duration of each layer call, the engine's own share of Analyze, and the
// tracing overhead (traced vs untraced time of the same operations).
void ReportCommonLayerTimes(double trace_overhead_pct, Report* report);

// Count metrics every traced run reports. A workload that does not run a
// layer reports 0 for that layer's counts.
struct LayerCounts {
  double runtime_calls = 0;
  double runtime_config_bytes = 0;
  double profile_text_bytes = 0;
  double graph_nodes = 0;
  double graph_edges = 0;
  double mincut_pushes = 0;
  double mincut_relabels = 0;
  double mincut_global_relabels = 0;
  double mincut_warm_hit_ratio = 0;
  double net_attempts_per_call = 0;
  double net_retries = 0;
  double net_corrupt_rejected = 0;
  double net_undelivered = 0;
  double fault_injected = 0;
  double fleet_cohorts = 0;
  double fleet_plans_computed = 0;
  double fleet_distinct_plans = 0;
  double fleet_useful_solve_ratio = 0;
  double fleet_cache_hit_ratio = 0;
  double fleet_regret_max_pct = 0;
  double online_evaluations = 0;
  double online_repartitions = 0;
  double online_recut_accept_ratio = 0;
  double online_quarantined_epochs = 0;
  double online_moved_instances = 0;
  double online_migration_bytes = 0;
  double online_mincut_pushes = 0;
};
void ReportLayerCounts(const LayerCounts& counts, Report* report);

// Runs `op` and counts it: an OpError or a false return is a failed
// operation. Returns false on failure.
bool RunOp(Report* report, const char* what, const std::function<bool()>& op);

}  // namespace perfbench

#endif  // COIGN_PERFBENCH_SRC_WORKLOADS_H_
