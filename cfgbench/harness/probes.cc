#include "harness/probes.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "grammar/analysis.h"
#include "grammar/grammar_parser.h"
#include "harness/stats.h"

namespace cfgbench {

using cfgtag::core::CompiledTagger;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

namespace {

// Dependent on T so the enumerator names are looked up only when the
// accessor exists.
template <typename T>
std::string EngineNameOf(const T& tagger) {
  if constexpr (requires { tagger.backend(); }) {
    using Backend = decltype(tagger.backend());
    switch (tagger.backend()) {
      case Backend::kFunctional:
        return "functional";
      case Backend::kFused:
        return "fused";
      case Backend::kLazyDfa:
        return "lazy_dfa";
      default:
        return "other";
    }
  } else {
    return "single";
  }
}

const cfgtag::tagger::TagSink& NoopSink() {
  static const cfgtag::tagger::TagSink kSink =
      [](const cfgtag::tagger::Tag&) { return true; };
  return kSink;
}

}  // namespace

std::string EngineName(const CompiledTagger& tagger) {
  return EngineNameOf(tagger);
}

CompileLayers ProbeCompile(const std::string* text,
                           const cfgtag::grammar::Grammar& grammar,
                           const cfgtag::hwgen::HwOptions& options,
                           std::string_view first_input, int reps,
                           SpanRecorder* trace) {
  CompileLayers out;
  out.tokens = static_cast<double>(grammar.NumTokens());
  std::vector<double> parse, analyze, generate, compile, first_tag, vhdl;
  for (int r = 0; r < reps; ++r) {
    if (text != nullptr) {
      parse.push_back(TimedUs(trace, "grammar.ParseGrammar", [&] {
        out.ok &= cfgtag::grammar::ParseGrammar(*text).ok();
      }));
    }
    analyze.push_back(TimedUs(trace, "grammar.Analyze", [&] {
      out.ok &= cfgtag::grammar::Analyze(grammar).ok();
    }));
    cfgtag::StatusOr<cfgtag::hwgen::GeneratedTagger> hw =
        cfgtag::InternalError("unset");
    generate.push_back(TimedUs(trace, "hwgen.Generate", [&] {
      hw = cfgtag::hwgen::TaggerGenerator::Generate(grammar, options);
    }));
    out.ok &= hw.ok();
    if (hw.ok()) {
      out.pattern_bytes = static_cast<double>(hw->pattern_bytes);
      out.gates = static_cast<double>(hw->netlist.ComputeStats().num_gates);
    }
    cfgtag::grammar::Grammar copy = grammar.Clone();
    cfgtag::StatusOr<CompiledTagger> tagger = cfgtag::InternalError("unset");
    compile.push_back(TimedUs(trace, "core.Compile", [&] {
      tagger = CompiledTagger::Compile(std::move(copy), options);
    }));
    if (!tagger.ok()) {
      out.ok = false;
      break;
    }
    first_tag.push_back(TimedUs(trace, "core.Tag", [&] {
      tagger->Tag(first_input, NoopSink());
    }));
    vhdl.push_back(TimedUs(trace, "core.ExportVhdl", [&] {
      out.ok &= tagger->ExportVhdl("cfgbench_probe").ok();
    }));
  }
  if (!out.ok) return out;
  out.parse_us = parse.empty() ? 0 : Median(parse);
  out.analyze_us = Median(analyze);
  out.generate_us = Median(generate);
  out.compile_us = Median(compile);
  out.first_tag_us = Median(first_tag);
  out.vhdl_export_us = Median(vhdl);
  return out;
}

void AddCompileMetrics(const std::vector<CompileLayers>& layers,
                       Metrics* out) {
  CompileLayers sum;
  for (const CompileLayers& l : layers) {
    sum.parse_us += l.parse_us;
    sum.analyze_us += l.analyze_us;
    sum.generate_us += l.generate_us;
    sum.compile_us += l.compile_us;
    sum.first_tag_us += l.first_tag_us;
    sum.vhdl_export_us += l.vhdl_export_us;
    sum.tokens += l.tokens;
    sum.pattern_bytes += l.pattern_bytes;
    sum.gates += l.gates;
  }
  const double n = static_cast<double>(layers.size());
  Metrics& m = *out;
  m["grammar.parse_us"] = {sum.parse_us / n, "us"};
  m["grammar.analyze_us"] = {sum.analyze_us / n, "us"};
  m["grammar.tokens"] = {sum.tokens, "count"};
  m["hwgen.generate_us"] = {sum.generate_us / n, "us"};
  m["hwgen.pattern_bytes"] = {sum.pattern_bytes, "count"};
  m["hwgen.gates"] = {sum.gates, "count"};
  m["hwgen.vhdl_export_us"] = {sum.vhdl_export_us / n, "us"};
  m["core.compile_us"] = {sum.compile_us / n, "us"};
  // Generate runs Analyze itself, so Compile's own share is what is left
  // after Generate: model construction (with its own Analyze) and tables.
  m["core.compile_self_us"] = {(sum.compile_us - sum.generate_us) / n, "us"};
  m["core.first_tag_us"] = {sum.first_tag_us / n, "us"};
}

TagLayers ProbeTag(const CompiledTagger& tagger,
                   const std::vector<std::string_view>& inputs,
                   double min_seconds, SpanRecorder* trace) {
  TagLayers out;
  // Per-call fixed cost: a 1-byte input, many times.
  const std::string_view one = inputs.front().substr(0, 1);
  constexpr int kCalls = 20000;
  double call_us = 0;
  for (int i = 0; i < kCalls; ++i) {
    call_us += TimedUs(trace, "core.Tag", [&] { tagger.Tag(one, NoopSink()); });
  }
  out.tag_call_us = call_us / kCalls;

  // Whole inputs, interleaving the three call shapes so drift hits all
  // three alike.
  double sink_us = 0, vector_us = 0, control_us = 0, bytes = 0, tags = 0;
  const cfgtag::core::resilience::ScanControl inert;
  const Clock::time_point start = Clock::now();
  do {
    for (std::string_view in : inputs) {
      sink_us +=
          TimedUs(trace, "core.Tag", [&] { tagger.Tag(in, NoopSink()); });
      vector_us += TimedUs(trace, "core.Tag", [&] {
        tags += static_cast<double>(tagger.Tag(in).size());
      });
      control_us += TimedUs(trace, "core.TagWithControl", [&] {
        (void)tagger.TagWithControl(in, NoopSink(), inert);
      });
      bytes += static_cast<double>(in.size());
    }
  } while (UsSince(start) < min_seconds * 1e6);
  out.tag_ns_per_byte = sink_us * 1e3 / bytes;
  out.materialize_ns_per_tag =
      tags > 0 ? (vector_us - sink_us) * 1e3 / tags : 0;
  out.control_overhead_pct = (control_us / sink_us - 1) * 100;
  return out;
}

void AddTagMetrics(const TagLayers& layers, Metrics* out) {
  Metrics& m = *out;
  m["core.tag_call_us"] = {layers.tag_call_us, "us"};
  m["core.tag_ns_per_byte"] = {layers.tag_ns_per_byte, "ns/B"};
  m["core.materialize_ns_per_tag"] = {layers.materialize_ns_per_tag,
                                      "ns/tag"};
  m["core.control_overhead_pct"] = {layers.control_overhead_pct, "%"};
}

}  // namespace cfgbench
