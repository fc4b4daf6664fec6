// Shared plumbing for the benchmark workloads: command-line options, the
// wall clock, the per-run report (metrics, operation counts, digest), and
// helpers that turn library errors into failed operations.

#ifndef COIGN_PERFBENCH_SRC_COMMON_H_
#define COIGN_PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/engine.h"
#include "src/apps/app.h"
#include "src/graph/distribution.h"
#include "src/profile/icc_profile.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"
#include "src/support/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // A few operations per workload, for the self-test.
  bool short_mode = false;
  // Hex digest the run's simulated outputs must match; empty skips the
  // comparison.
  std::string expect_digest;
  // Directory for run files (span dumps, the migration journal).
  std::string run_dir = ".";
};

// Raised by Need() when a library call fails; the workload loop counts
// the operation as failed.
class OpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename T>
T Need(coign::Result<T> result, const char* what) {
  if (!result.ok()) {
    throw OpError(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(*result);
}

void Need(const coign::Status& status, const char* what);

// Monotonic wall clock in milliseconds.
inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(Clock::now().time_since_epoch()).count();
}

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
// empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// Operation times of a run, by slot. A run is whole passes over the same
// operations in the same order, so slot i of every pass is the same work
// and its times differ only by host noise.
//
// An operation's steady time is the 90th percentile of its slot over the
// passes. Shared hosts swing between a fast and a slow speed (about 1.7x
// apart on the 4-vCPU VM the benchmark was tuned on) every few seconds,
// in shares that change from minute to minute. A per-slot median flips
// between the two speeds as the shares change; the 90th percentile stays
// in the prevailing slow one. Over 30 s windows of a fixed spin loop there,
// the spread (IQR / median) of the median was 12% and of the 90th
// percentile 2.4%.
class SlotTimes {
 public:
  void Add(size_t slot, double ms);
  // Steady time of each slot, in slot order.
  std::vector<double> Steady() const;
  // Sum of the steady times: the steady time of one pass.
  double SteadyPass() const;
  size_t slots() const { return slots_.size(); }
  void Clear() { slots_.clear(); }

 private:
  std::vector<std::vector<double>> slots_;
};

// The host's speed during a run, from a fixed calibration kernel that
// calls nothing in the program, run between operations about every 200 ms
// (about 2% of a run). Shared hosts also change speed for minutes at a
// time, by up to 1.7x, which no estimator within one run can remove. The
// end-to-end times are therefore reported in calibrated units: multiplied
// by Scale(), they read as on a host where the kernel's steady time (its
// 90th percentile over the run) is 5 ms, close to the 4-vCPU VM the
// benchmark was tuned on. Over 30 s windows there, this cut the spread
// (IQR / median) of online's steady pass time from 9.6% to 3.4%, and of
// fleet's steady cold plan from 21% to 11%. The kernel measures the host, not the program: a faster program
// reads faster in calibrated units by the same factor as in wall time.
class HostSpeed {
 public:
  // Runs the kernel if 200 ms have passed since it last ran. Call between
  // operations, outside their timing.
  void Tick();
  // Runs the kernel now and returns the calibrated time per measured time
  // for work done just before.
  double SampleScale();
  double SteadyMs() const;
  // Calibrated time per measured time.
  double Scale() const;

 private:
  std::vector<double> samples_;
  double last_ms_ = 0.0;
};

// FNV-1a over typed values: the digest of a run's simulated outputs.
class Digest {
 public:
  void Mix(uint64_t value);
  void Mix(double value);
  void Mix(const std::string& text);
  void Mix(const coign::Distribution& distribution);
  void Mix(const coign::RunMeasurement& run);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// What a workload run reports: named metrics with units, operations
// attempted and failed, and the digest of its simulated outputs.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A workload-specific layer metric: printed on a report line, not part
  // of the final JSON object (see perfbench/README.md).
  void Extra(const std::string& name, double value, const std::string& unit);
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what);
  void SetDigest(const Digest& digest) { digest_ = digest.Hex(); }

  // Checks the digest against `expected` (when non-empty), prints the
  // report lines and, last, the one-line JSON result.
  void Print(const std::string& expected_digest);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> extras_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string digest_;
};

// Sets a workload up `repeats` times and keeps the last state. Stores the
// median set-up time, in calibrated seconds, in `*median_s`: each set-up is
// calibrated by a kernel run right after it, since set-up is over before
// the run's other calibration samples are taken. Only one state is alive
// at a time; the previous one dies outside the timing.
template <typename Make>
auto TimedSetup(int repeats, Make make, HostSpeed* speed, double* median_s)
    -> decltype(make()) {
  std::vector<double> seconds;
  decltype(make()) kept;
  for (int i = 0; i < repeats; ++i) {
    kept = {};
    const double start = NowMs();
    kept = make();
    const double elapsed_s = (NowMs() - start) / 1000.0;
    seconds.push_back(elapsed_s * speed->SampleScale());
  }
  *median_s = Median(seconds);
  return kept;
}

// Peak resident set of this process so far, in MiB. Workloads read it
// after their first pass: later passes repeat the same allocations, and
// how far the allocator's heap creeps over them depends on the run's
// length, not on the program.
double PeakRssMb();

// Mixes the semantic content of a profile (totals and per-pair message
// counts and bytes, in sorted order) — independent of the log format, so a
// codec change that keeps the profile keeps the digest. The log keeps
// compute seconds to 10 significant digits; `with_compute` = false leaves
// them out, for comparing a profile with its parsed log.
void MixProfile(Digest* digest, const coign::IccProfile& profile, bool with_compute = true);

// Mixes an analysis result's exact cut, distribution and prediction.
void MixAnalysis(Digest* digest, const coign::AnalysisResult& result);

// Profiles `scenario_ids` of `app` through an instrumented image and the
// profiling runtime, as the developer path does. Records the
// runtime.instrument and runtime.profiling_run spans.
struct ProfiledRun {
  coign::IccProfile profile;
  std::vector<coign::Descriptor> classifier_table;
  coign::ApplicationImage instrumented;
  uint64_t calls = 0;
};
ProfiledRun ProfileScenarios(coign::Application& app, const std::vector<std::string>& scenario_ids,
                             uint64_t scenario_seed);

// True when two distributions place every classification identically.
bool SameDistribution(const coign::Distribution& a, const coign::Distribution& b);

}  // namespace perfbench

#endif  // COIGN_PERFBENCH_SRC_COMMON_H_
