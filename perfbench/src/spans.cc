#include "perfbench/src/spans.h"

#include <cstdio>

#include "perfbench/src/common.h"

namespace perfbench {

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ms = NowMs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ms = NowMs();
  // Scoped spans close innermost first; pop through anything left open
  // (an exception unwinding several scopes closes them in order anyway).
  while (!open_.empty() && open_.back() != index) {
    open_.pop_back();
  }
  if (!open_.empty()) {
    open_.pop_back();
  }
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ms += span.duration_ms();
  }
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(span.duration_ms());
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::LayerSelfMs() const {
  std::map<std::string, double> layers;
  for (const Span& span : spans_) {
    const std::string name = span.name;
    layers[name.substr(0, name.find('.'))] += span.self_ms();
  }
  return layers;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n  {\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"parent\": %d, \"op\": %llu}",
                 i == 0 ? "" : ",", span.name, span.start_ms, span.end_ms, span.parent,
                 static_cast<unsigned long long>(span.op));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
