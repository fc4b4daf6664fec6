// The inter-component communication (ICC) profile — what scenario-based
// profiling produces and the analysis engine consumes.
//
// Communication is summarized per (source classification, destination
// classification, interface, method) into exponential size-range histograms
// (paper §3.3), keeping the profile network-independent and bounded in
// size. Per-classification metadata (class, API usage, instance counts)
// feeds the constraint system. Profiles from multiple scenario executions
// merge associatively.

#ifndef COIGN_SRC_PROFILE_ICC_PROFILE_H_
#define COIGN_SRC_PROFILE_ICC_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/classify/descriptor.h"
#include "src/com/types.h"
#include "src/support/histogram.h"
#include "src/support/status.h"

namespace coign {

struct ClassificationInfo {
  ClassificationId id = kNoClassification;
  ClassId clsid;
  std::string class_name;
  uint32_t api_usage = 0;       // ApiUsage bitmask of the class.
  uint64_t instance_count = 0;  // Instances seen across profiled executions.
  // State bytes components of this classification allocated across
  // profiled executions (ChargeAllocation during scenarios). Divided by
  // instance_count it yields the mean serialized-state estimate migration
  // pricing uses in place of the flat per-instance constant.
  uint64_t allocation_bytes = 0;
};

// Mean per-instance profiled state size of a classification, or `fallback`
// for classifications never profiled (or never observed allocating).
// Shared by the repartition policy (pricing a prospective migration) and
// the live migrator (billing the actual copies) so both sides of the
// rent-or-buy rule price the same bytes.
uint64_t ProfiledStateBytes(const ClassificationInfo* info, uint64_t fallback);

// Histogram pair for one (src, dst, iid, method) key.
struct CallSummary {
  ExponentialHistogram requests;
  ExponentialHistogram replies;
  uint64_t non_remotable_calls = 0;

  uint64_t call_count() const { return requests.total_count(); }
  uint64_t total_bytes() const { return requests.total_bytes() + replies.total_bytes(); }
};

struct CallKey {
  ClassificationId src = kNoClassification;  // kNoClassification = driver.
  ClassificationId dst = kNoClassification;
  InterfaceId iid;
  MethodIndex method = 0;

  friend bool operator==(const CallKey&, const CallKey&) = default;
};

struct CallKeyHash {
  size_t operator()(const CallKey& k) const {
    uint64_t h = k.src;
    h = h * 0x9e3779b97f4a7c15ull + k.dst;
    h = h * 0x9e3779b97f4a7c15ull + k.iid.hi;
    h = h * 0x9e3779b97f4a7c15ull + k.iid.lo;
    h = h * 0x9e3779b97f4a7c15ull + k.method;
    return static_cast<size_t>(h);
  }
};

class IccProfile {
 public:
  // --- Recording (profiling logger side) ----------------------------------

  void RecordClassification(const ClassificationInfo& info);
  void RecordInstantiation(ClassificationId id);
  void RecordCall(const CallKey& key, uint64_t request_bytes, uint64_t reply_bytes,
                  bool remotable);
  // Local compute observed during profiling, attributed to the callee
  // classification; feeds the execution-time prediction model.
  void RecordCompute(ClassificationId id, double seconds);
  // Component state allocation observed during profiling, attributed to
  // the allocating classification; feeds migration state-size estimates.
  // No-op for unknown classifications (mirrors RecordInstantiation).
  void RecordAllocation(ClassificationId id, uint64_t bytes);
  // Injects pre-summarized histograms for a key.
  void InjectCallSummary(const CallKey& key, const ExponentialHistogram& requests,
                         const ExponentialHistogram& replies, uint64_t non_remotable_calls);
  // `fill(CallSummary&)` adds pre-summarized data to the key's summary in
  // place (created empty on first use, so keys enter calls() in the order
  // they are filled), and the profile totals grow by what it added.
  // Returns fill's Status. Profile log loading builds each `call` line's
  // histograms this way, with no temporary histograms.
  template <typename Fill>
  Status FillCallSummary(const CallKey& key, Fill&& fill) {
    CallSummary& summary = calls_[key];
    const uint64_t calls_before = summary.call_count();
    const uint64_t bytes_before = summary.total_bytes();
    Status status = fill(summary);
    total_calls_ += summary.call_count() - calls_before;
    total_bytes_ += summary.total_bytes() - bytes_before;
    return status;
  }

  // --- Queries (analysis side) ---------------------------------------------

  const std::unordered_map<CallKey, CallSummary, CallKeyHash>& calls() const { return calls_; }
  const std::unordered_map<ClassificationId, ClassificationInfo>& classifications() const {
    return classifications_;
  }
  const ClassificationInfo* FindClassification(ClassificationId id) const;

  double total_compute_seconds() const { return total_compute_seconds_; }
  double ComputeSecondsOf(ClassificationId id) const;

  uint64_t total_calls() const { return total_calls_; }
  uint64_t total_bytes() const { return total_bytes_; }

  // Classifications sorted by id, for deterministic iteration.
  std::vector<ClassificationId> SortedClassificationIds() const;

  // --- Combination ----------------------------------------------------------

  // "Log files from multiple profiling scenarios may be combined and
  // summarized during later analysis."
  void Merge(const IccProfile& other);

  bool empty() const { return calls_.empty() && classifications_.empty(); }

 private:
  std::unordered_map<CallKey, CallSummary, CallKeyHash> calls_;
  std::unordered_map<ClassificationId, ClassificationInfo> classifications_;
  std::unordered_map<ClassificationId, double> compute_seconds_;
  double total_compute_seconds_ = 0.0;
  uint64_t total_calls_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace coign

#endif  // COIGN_SRC_PROFILE_ICC_PROFILE_H_
