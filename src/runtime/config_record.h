// The configuration record (paper §2-3).
//
// The binary rewriter appends this record to the application binary. It
// tells the runtime how to profile the application and how to classify
// components during execution; after analysis it carries the chosen
// distribution and switches the binary to the lightweight runtime.

#ifndef COIGN_SRC_RUNTIME_CONFIG_RECORD_H_
#define COIGN_SRC_RUNTIME_CONFIG_RECORD_H_

#include <string>
#include <string_view>

#include "src/classify/classifiers.h"
#include "src/graph/distribution.h"
#include "src/support/status.h"

namespace coign {

enum class RuntimeMode {
  kProfiling,    // Heavy instrumentation: profiling informer + logger.
  kDistributed,  // Lightweight: distribution informer, factories realize
                 // the distribution, null logger.
};

const char* RuntimeModeName(RuntimeMode mode);

struct ConfigurationRecord {
  RuntimeMode mode = RuntimeMode::kProfiling;
  ClassifierKind classifier_kind = ClassifierKind::kInternalFunctionCalledBy;
  int classifier_depth = kCompleteStackWalk;
  // Classification → machine map; meaningful in kDistributed mode.
  Distribution distribution;
  // The profiled classification table ("component classification data" in
  // the paper's words): restoring it lets the lightweight runtime assign
  // the same classification ids the analysis used, even for instantiation
  // contexts that appear in a different order at run time.
  std::vector<Descriptor> classifier_table;
  // Accumulated profile summary ("information from the log file may be
  // combined into the configuration record in the application binary").
  std::string profile_text;

  // The magic line, then `mode`, `classifier` and `default-machine`
  // lines, one `place` line per placement entry in ascending id order,
  // one `desc` line per classifier-table entry, and a `profile <bytes>`
  // line followed by the raw profile text.
  std::string Serialize() const;
  // Copies the profile payload once; a malformed line fails the whole
  // parse with InvalidArgumentError. `place` lines may come in any order;
  // where an id repeats, the last line wins.
  static Result<ConfigurationRecord> Parse(std::string_view text);
};

}  // namespace coign

#endif  // COIGN_SRC_RUNTIME_CONFIG_RECORD_H_
