#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <map>
#include <tuple>

#include "perfbench/src/spans.h"
#include "src/runtime/binary_rewriter.h"

namespace perfbench {

void Need(const coign::Status& status, const char* what) {
  if (!status.ok()) {
    throw OpError(std::string(what) + ": " + status.ToString());
  }
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

void SlotTimes::Add(size_t slot, double ms) {
  if (slot >= slots_.size()) {
    slots_.resize(slot + 1);
  }
  slots_[slot].push_back(ms);
}

std::vector<double> SlotTimes::Steady() const {
  std::vector<double> steady;
  steady.reserve(slots_.size());
  for (const std::vector<double>& times : slots_) {
    steady.push_back(Quantile(times, 0.9));
  }
  return steady;
}

double SlotTimes::SteadyPass() const {
  double sum = 0.0;
  for (double ms : Steady()) {
    sum += ms;
  }
  return sum;
}

namespace {

constexpr double kCalibrationEveryMs = 200.0;
constexpr double kNominalCalibrationMs = 5.0;

// Keeps the kernel's work from being optimized away.
std::atomic<uint64_t> kernel_sink{0};

// The calibration kernel: breadth-first searches over a fixed random graph
// in adjacency lists, counting depths in a std::map. Like the program, it
// allocates small blocks and follows pointers through a working set that
// fits in cache, and its few hundred KiB stay under the program's own peak
// resident set. Returns its wall time in milliseconds.
double CalibrationKernelMs() {
  const double start = NowMs();
  constexpr int kNodes = 3000;
  std::vector<std::vector<int>> adjacency(kNodes);
  uint64_t state = 0x5851F42D4C957F2Dull;
  for (int i = 0; i < kNodes * 5; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int a = static_cast<int>((state >> 33) % kNodes);
    const int b = static_cast<int>((state >> 13) % kNodes);
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  std::map<int, int> depth_count;
  uint64_t reached = 0;
  for (int source = 0; source < 8; ++source) {
    std::vector<int> depth(kNodes, -1);
    std::vector<int> queue{source};
    depth[source] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const int node = queue[head];
      for (int other : adjacency[node]) {
        if (depth[other] < 0) {
          depth[other] = depth[node] + 1;
          queue.push_back(other);
          ++depth_count[depth[other] * kNodes + other % 97];
        }
      }
    }
    reached += queue.size();
  }
  const double ms = NowMs() - start;
  kernel_sink.fetch_add(reached + depth_count.size(), std::memory_order_relaxed);
  return ms;
}

}  // namespace

void HostSpeed::Tick() {
  if (samples_.empty() || NowMs() - last_ms_ >= kCalibrationEveryMs) {
    SampleScale();
  }
}

double HostSpeed::SampleScale() {
  samples_.push_back(CalibrationKernelMs());
  last_ms_ = NowMs();
  return kNominalCalibrationMs / samples_.back();
}

double HostSpeed::SteadyMs() const { return Quantile(samples_, 0.9); }

double HostSpeed::Scale() const { return kNominalCalibrationMs / SteadyMs(); }

void Digest::Mix(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (byte * 8)) & 0xff;
    hash_ *= 1099511628211ull;
  }
}

void Digest::Mix(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(bits);
}

void Digest::Mix(const std::string& text) {
  Mix(static_cast<uint64_t>(text.size()));
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
}

void Digest::Mix(const coign::Distribution& distribution) {
  std::vector<std::pair<coign::ClassificationId, coign::MachineId>> entries(
      distribution.placement.begin(), distribution.placement.end());
  std::sort(entries.begin(), entries.end());
  Mix(static_cast<uint64_t>(entries.size()));
  for (const auto& [id, machine] : entries) {
    Mix(static_cast<uint64_t>(id));
    Mix(static_cast<uint64_t>(machine));
  }
  Mix(static_cast<uint64_t>(distribution.default_machine));
}

void Digest::Mix(const coign::RunMeasurement& run) {
  Mix(run.communication_seconds);
  Mix(run.compute_seconds);
  Mix(run.execution_seconds);
  Mix(run.total_calls);
  Mix(run.remote_calls);
  Mix(run.remote_bytes);
}

std::string Digest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
  return buffer;
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Extra(const std::string& name, double value, const std::string& unit) {
  extras_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::Print(const std::string& expected_digest) {
  if (!expected_digest.empty() && expected_digest != digest_) {
    Fail("digest " + digest_ + " != expected " + expected_digest);
  }
  std::printf("digest %s\n", digest_.c_str());
  for (const Entry& entry : extras_) {
    std::printf("layer-metric %s %.6g %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed_ == 0 ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& entry = metrics_[i];
    // %.17g keeps every digit; non-finite values would not be JSON.
    const double value = std::isfinite(entry.value) ? entry.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                entry.name.c_str(), value, entry.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would also carry the launching process's peak across exec.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      unsigned long long kib = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        std::fclose(status);
        return static_cast<double>(kib) / 1024.0;
      }
    }
    std::fclose(status);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void MixProfile(Digest* digest, const coign::IccProfile& profile, bool with_compute) {
  using Row = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                         uint64_t, uint64_t, uint64_t>;
  std::vector<Row> rows;
  rows.reserve(profile.calls().size());
  for (const auto& [key, summary] : profile.calls()) {
    rows.emplace_back(key.src, key.dst, key.iid.hi, key.iid.lo, key.method,
                      summary.requests.total_count(), summary.requests.total_bytes(),
                      summary.replies.total_count(), summary.replies.total_bytes(),
                      summary.non_remotable_calls);
  }
  std::sort(rows.begin(), rows.end());
  digest->Mix(static_cast<uint64_t>(rows.size()));
  for (const Row& row : rows) {
    std::apply([digest](auto... field) { (digest->Mix(static_cast<uint64_t>(field)), ...); },
               row);
  }
  for (coign::ClassificationId id : profile.SortedClassificationIds()) {
    const coign::ClassificationInfo* info = profile.FindClassification(id);
    digest->Mix(static_cast<uint64_t>(id));
    digest->Mix(info->class_name);
    digest->Mix(static_cast<uint64_t>(info->api_usage));
    digest->Mix(info->instance_count);
    digest->Mix(info->allocation_bytes);
    if (with_compute) {
      digest->Mix(profile.ComputeSecondsOf(id));
    }
  }
  digest->Mix(profile.total_calls());
  digest->Mix(profile.total_bytes());
}

void MixAnalysis(Digest* digest, const coign::AnalysisResult& result) {
  digest->Mix(static_cast<uint64_t>(result.cut_value_units));
  digest->Mix(result.distribution);
  digest->Mix(result.predicted_comm_seconds);
  digest->Mix(result.total_comm_seconds);
  digest->Mix(static_cast<uint64_t>(result.cut_edges.size()));
}

ProfiledRun ProfileScenarios(coign::Application& app, const std::vector<std::string>& scenario_ids,
                             uint64_t scenario_seed) {
  ProfiledRun out;
  coign::BinaryRewriter rewriter;
  {
    ScopedSpan span("runtime.instrument");
    out.instrumented =
        Need(rewriter.Instrument(app.Image(), coign::ConfigurationRecord()), "instrument");
  }
  coign::ObjectSystem system;
  Need(app.Install(&system), "install");
  std::unique_ptr<coign::CoignRuntime> runtime =
      Need(coign::CoignRuntime::LoadFromImage(&system, out.instrumented), "load runtime");
  coign::Rng rng(scenario_seed);
  for (const std::string& id : scenario_ids) {
    const coign::Scenario scenario = Need(app.FindScenario(id), "find scenario");
    // The instrumented execution alone, as the plain and distributed runs
    // the slowdowns compare it with are timed.
    ScopedSpan span("runtime.profiling_run");
    runtime->BeginScenario();
    Need(scenario.run(system, rng), "profiling run");
    system.DestroyAll();
  }
  out.profile = runtime->profiling_logger()->profile();
  out.classifier_table = runtime->classifier().ExportDescriptors();
  out.calls = runtime->calls_observed();
  return out;
}

bool SameDistribution(const coign::Distribution& a, const coign::Distribution& b) {
  return a.placement == b.placement && a.default_machine == b.default_machine;
}

}  // namespace perfbench
