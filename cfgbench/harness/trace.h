#ifndef CFGBENCH_HARNESS_TRACE_H_
#define CFGBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cfgbench {

// In-memory span log of a traced run. The benchmark opens one span around
// every public library call it makes (named "<layer>.<Function>", e.g.
// "core.Compile") under a root span per operation ("bench.op") or per
// layer probe ("bench.probe"). Spans stay in memory and are written out
// once, after the run. Single-threaded: only the benchmark's caller thread
// records.
class SpanRecorder {
 public:
  struct Span {
    const char* name;  // static string
    int64_t start_ns;  // since the recorder was created
    int64_t end_ns;
    int32_t parent;    // index of the parent span, -1 for a root
    uint32_t op;       // operation id shared by a root and its children
  };

  SpanRecorder();

  // Starts a new operation id; later root spans carry it.
  void NextOp() { ++op_; }

  int32_t Open(const char* name);
  void Close(int32_t id);

  // Per-layer self time in nanoseconds, summed over the spans under root
  // spans named `root` (the roots included): a span's duration minus the
  // time its children cover. The layer is the span name up to its first
  // '.'; a layer with no such span is missing from the map.
  std::map<std::string, double> SelfNsByLayer(std::string_view root) const;

  struct NameTotals {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, NameTotals> TotalsByName() const;

  // Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev): the first
  // `max_spans` spans as complete events with their id, parent and op in
  // args, plus a "summary" object of per-name totals over every span.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t op_ = 0;
};

// Records one span for its scope; a null recorder makes it a no-op, which
// is how untraced runs call the same code.
class BenchSpan {
 public:
  BenchSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Open(name) : -1) {}
  ~BenchSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_TRACE_H_
