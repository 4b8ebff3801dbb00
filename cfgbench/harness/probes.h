#ifndef CFGBENCH_HARNESS_PROBES_H_
#define CFGBENCH_HARNESS_PROBES_H_

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "core/token_tagger.h"
#include "grammar/grammar.h"
#include "harness/trace.h"
#include "harness/workload.h"
#include "hwgen/tagger_gen.h"

// Layer probes shared by the workloads: each public call is timed from
// outside under its own span, on the calling workload's grammar and input.

namespace cfgbench {

using Clock = std::chrono::steady_clock;

inline double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Runs f() under a span named `name`; returns its wall time in µs.
template <typename F>
double TimedUs(SpanRecorder* trace, const char* name, F&& f) {
  const Clock::time_point t0 = Clock::now();
  {
    BenchSpan span(trace, name);
    f();
  }
  return UsSince(t0);
}

bool ReadFile(const std::string& path, std::string* out);

// The engine CompiledTagger::Compile resolved to. The benchmark never
// chooses one; when the library stops exposing the choice this reads
// "single".
std::string EngineName(const cfgtag::core::CompiledTagger& tagger);

// Compile-side layers of one grammar; times are medians of `reps` calls.
struct CompileLayers {
  double parse_us = 0;  // 0 when the workload has no grammar text
  double analyze_us = 0;
  double generate_us = 0;
  double compile_us = 0;
  double first_tag_us = 0;  // first Tag on a freshly compiled tagger
  double vhdl_export_us = 0;
  double tokens = 0;
  double pattern_bytes = 0;
  double gates = 0;
  bool ok = true;
};
CompileLayers ProbeCompile(const std::string* text,
                           const cfgtag::grammar::Grammar& grammar,
                           const cfgtag::hwgen::HwOptions& options,
                           std::string_view first_input, int reps,
                           SpanRecorder* trace);

// Adds the grammar.*, hwgen.* and core.compile/first-tag metrics: times
// are the mean over `layers` (one entry per grammar), counts the sum.
void AddCompileMetrics(const std::vector<CompileLayers>& layers,
                       Metrics* out);

// Scan-side core layers of one tagger over a workload's inputs.
struct TagLayers {
  double tag_call_us = 0;             // Tag on a 1-byte input
  double tag_ns_per_byte = 0;         // Tag with a no-op sink
  double materialize_ns_per_tag = 0;  // Tag->vector minus Tag->sink
  double control_overhead_pct = 0;    // inert TagWithControl vs Tag
};
TagLayers ProbeTag(const cfgtag::core::CompiledTagger& tagger,
                   const std::vector<std::string_view>& inputs,
                   double min_seconds, SpanRecorder* trace);
void AddTagMetrics(const TagLayers& layers, Metrics* out);

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_PROBES_H_
