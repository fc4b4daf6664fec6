// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer: name ("<layer>.<what>"), start, end, parent span and the
// operation they belong to. Recording is single-threaded (the benchmark's
// coordinator thread) and off unless the run is traced, so the untraced
// run pays one branch per span. Spans are written out when the run ends.

#ifndef COIGN_PERFBENCH_SRC_SPANS_H_
#define COIGN_PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // String literal: "<layer>.<what>".
  double start_ms = 0.0;
  double end_ms = 0.0;
  double child_ms = 0.0;  // Time covered by direct children.
  int parent = -1;        // Index of the enclosing span, -1 at the root.
  uint64_t op = 0;        // Operation the span belongs to.

  double duration_ms() const { return end_ms - start_ms; }
  double self_ms() const { return duration_ms() - child_ms; }
};

class SpanRecorder {
 public:
  // The process-wide recorder.
  static SpanRecorder& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  // Operation id stamped on spans begun from now on.
  void SetOp(uint64_t op) { op_ = op; }

  // Returns the span's index, or -1 when recording is off.
  int Begin(const char* name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (ms) of every span with this name, in order.
  std::vector<double> Durations(const std::string& name) const;
  // Self time summed per layer (the name up to its first '.').
  std::map<std::string, double> LayerSelfMs() const;

  // Writes every span as JSON; returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span indices.
};

// Records one span over its scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(SpanRecorder::Get().Begin(name)) {}
  ~ScopedSpan() { SpanRecorder::Get().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

}  // namespace perfbench

#endif  // COIGN_PERFBENCH_SRC_SPANS_H_
