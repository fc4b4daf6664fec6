// Profile log files.
//
// "At the end of a profiling execution, Coign writes the inter-component
// communication profiles to a file for later analysis ... Log files from
// multiple profiling scenarios may be combined and summarized during later
// analysis." (paper §2)
//
// A line-oriented text format; loads merge naturally because IccProfile
// merges associatively.

#ifndef COIGN_SRC_PROFILE_LOG_FILE_H_
#define COIGN_SRC_PROFILE_LOG_FILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

// Serializes a profile to the log format: the magic line; then, by
// ascending classification id, a `classification` line with its `alloc`
// and `compute` lines (each written only when positive); then one `call`
// line per key in calls() iteration order.
std::string SerializeProfile(const IccProfile& profile);

// Parses a serialized profile. Call keys enter the profile in file order.
// A malformed line fails the whole parse with InvalidArgumentError, and so
// does a record the writer cannot carry back: a histogram field with count
// 0, a `compute` time that is not positive or that its ten-digit text would
// not reproduce, a `compute` line before its classification's line, or
// `compute` lines not in strictly ascending id order (so a repeated id
// too). Parse then serialize then parse keeps every total.
Result<IccProfile> ParseProfile(std::string_view text);

// File convenience wrappers.
Status WriteProfileFile(const IccProfile& profile, const std::string& path);
Result<IccProfile> ReadProfileFile(const std::string& path);

// Loads every path and merges them into one profile.
Result<IccProfile> MergeProfileFiles(const std::vector<std::string>& paths);

}  // namespace coign

#endif  // COIGN_SRC_PROFILE_LOG_FILE_H_
