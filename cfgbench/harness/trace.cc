#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace cfgbench {

namespace {

int64_t NsSince(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

// Children of one parent never overlap (one recording thread), so the time
// they cover is the sum of their durations.
std::vector<double> ChildNs(const std::vector<SpanRecorder::Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return child;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 20);
}

int32_t SpanRecorder::Open(const char* name) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NsSince(epoch_), 0, current_, op_});
  current_ = id;
  return id;
}

void SpanRecorder::Close(int32_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NsSince(epoch_);
  current_ = s.parent;
}

std::map<std::string, double> SpanRecorder::SelfNsByLayer(
    std::string_view root) const {
  const std::vector<double> child = ChildNs(spans_);
  // A parent is opened before its children, so its root is known first.
  std::vector<const char*> root_of(spans_.size());
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root_of[i] =
        s.parent < 0 ? s.name : root_of[static_cast<size_t>(s.parent)];
    if (root_of[i] != root) continue;
    out[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns) - child[i];
  }
  return out;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::TotalsByName()
    const {
  const std::vector<double> child = ChildNs(spans_);
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child[i];
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %u}}\n",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.op);
  }
  std::fprintf(f, "],\n\"spans_recorded\": %zu, \"spans_written\": %zu,\n",
               spans_.size(), n);
  std::fprintf(f, "\"summary\": {");
  bool first = true;
  for (const auto& [name, t] : TotalsByName()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns / 1e3,
                 t.self_ns / 1e3);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace cfgbench
