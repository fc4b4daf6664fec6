#include "src/profile/icc_profile.h"

#include <algorithm>

namespace coign {

void IccProfile::RecordClassification(const ClassificationInfo& info) {
  auto it = classifications_.find(info.id);
  if (it == classifications_.end()) {
    classifications_.emplace(info.id, info);
    return;
  }
  // Merging metadata for a known classification: instance counts and
  // allocation bytes add, API usage unions (a property of the class, so
  // normally identical).
  it->second.api_usage |= info.api_usage;
  it->second.instance_count += info.instance_count;
  it->second.allocation_bytes += info.allocation_bytes;
}

uint64_t ProfiledStateBytes(const ClassificationInfo* info, uint64_t fallback) {
  if (info == nullptr || info->allocation_bytes == 0 || info->instance_count == 0) {
    return fallback;
  }
  return std::max<uint64_t>(1, info->allocation_bytes / info->instance_count);
}

void IccProfile::RecordInstantiation(ClassificationId id) {
  auto it = classifications_.find(id);
  if (it != classifications_.end()) {
    it->second.instance_count += 1;
  }
}

void IccProfile::RecordCall(const CallKey& key, uint64_t request_bytes, uint64_t reply_bytes,
                            bool remotable) {
  CallSummary& summary = calls_[key];
  summary.requests.Add(request_bytes);
  summary.replies.Add(reply_bytes);
  if (!remotable) {
    summary.non_remotable_calls += 1;
  }
  total_calls_ += 1;
  total_bytes_ += request_bytes + reply_bytes;
}

void IccProfile::InjectCallSummary(const CallKey& key, const ExponentialHistogram& requests,
                                   const ExponentialHistogram& replies,
                                   uint64_t non_remotable_calls) {
  FillCallSummary(key, [&](CallSummary& summary) {
    summary.requests.Merge(requests);
    summary.replies.Merge(replies);
    summary.non_remotable_calls += non_remotable_calls;
    return Status::Ok();
  });
}

void IccProfile::RecordAllocation(ClassificationId id, uint64_t bytes) {
  auto it = classifications_.find(id);
  if (it != classifications_.end()) {
    it->second.allocation_bytes += bytes;
  }
}

void IccProfile::RecordCompute(ClassificationId id, double seconds) {
  compute_seconds_[id] += seconds;
  total_compute_seconds_ += seconds;
}

const ClassificationInfo* IccProfile::FindClassification(ClassificationId id) const {
  auto it = classifications_.find(id);
  return it == classifications_.end() ? nullptr : &it->second;
}

double IccProfile::ComputeSecondsOf(ClassificationId id) const {
  auto it = compute_seconds_.find(id);
  return it == compute_seconds_.end() ? 0.0 : it->second;
}

std::vector<ClassificationId> IccProfile::SortedClassificationIds() const {
  std::vector<ClassificationId> ids;
  ids.reserve(classifications_.size());
  for (const auto& [id, info] : classifications_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void IccProfile::Merge(const IccProfile& other) {
  for (const auto& [id, info] : other.classifications_) {
    RecordClassification(info);
  }
  for (const auto& [key, summary] : other.calls_) {
    CallSummary& mine = calls_[key];
    mine.requests.Merge(summary.requests);
    mine.replies.Merge(summary.replies);
    mine.non_remotable_calls += summary.non_remotable_calls;
  }
  for (const auto& [id, seconds] : other.compute_seconds_) {
    compute_seconds_[id] += seconds;
  }
  total_compute_seconds_ += other.total_compute_seconds_;
  total_calls_ += other.total_calls_;
  total_bytes_ += other.total_bytes_;
}

}  // namespace coign
