// nids_batch: traffic -> alerts. Newline-framed request flows of skewed
// sizes scanned by ScanEngine::ScanBatch with one worker per core; the
// tiny request grammar leaves the tagger little to do, so span recovery,
// Aho-Corasick matching and worker scheduling dominate, and each window's
// elephant flow sets the batch's critical path.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common/rng.h"
#include "grammar/grammar_parser.h"
#include "harness/probes.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "nids/scan_engine.h"

namespace cfgbench {

namespace {

using cfgtag::nids::Alert;
using cfgtag::nids::ContextFilter;
using cfgtag::nids::Rule;
using cfgtag::nids::ScanEngine;

constexpr int kRules = 64;
constexpr size_t kWindows = 16;
constexpr size_t kFlowsPerWindow = 64;  // one of them an elephant
constexpr int kMinRequests = 10, kMaxRequests = 300;
constexpr int kMinElephant = 20, kMaxElephant = 50;  // x the mean flow
constexpr uint64_t kShapeSeed = 2006;
// Filler bytes for paths and header values. No rule pattern can form from
// them (every pattern needs one of . / b c s), so the only alerts are the
// planted ones.
constexpr char kFiller[] = "ghjkmnpqrtuvwyz0123456789";

cfgtag::hwgen::HwOptions FilterOptions() {
  cfgtag::hwgen::HwOptions options;
  options.tagger.arm_mode = cfgtag::tagger::ArmMode::kResync;
  return options;
}

int NumCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool AlertLess(const Alert& a, const Alert& b) {
  return a.end != b.end ? a.end < b.end : a.rule_index < b.rule_index;
}

// The four real signatures and synthetic ones, all bound to PATH, plus one
// context-free rule; synthetic patterns are drawn from the seed.
std::vector<Rule> MakeRules(cfgtag::Rng& rng) {
  std::vector<Rule> rules = {{"TRAVERSAL", "../", "PATH", 3},
                             {"PASSWD", "/etc/passwd", "PATH", 3},
                             {"DROPPER", "cmd.exe", "PATH", 2},
                             {"SHELL", "bin/sh", "PATH", 2}};
  std::set<std::string> seen;
  while (static_cast<int>(rules.size()) < kRules - 1) {
    std::string pattern = "sig" + rng.NextString(6, "0123456789abcdef");
    if (!seen.insert(pattern).second) continue;
    rules.push_back({"SYN-" + std::to_string(rules.size()),
                     std::move(pattern), "PATH", 1});
  }
  rules.push_back(
      {"CF-PROBE", "cfx" + rng.NextString(5, "0123456789abcdef"), "", 1});
  return rules;
}

class NidsBatchWorkload : public Workload {
 public:
  explicit NidsBatchWorkload(std::string text) : text_(std::move(text)) {}

  uint64_t Generate(uint64_t seed) override {
    cfgtag::Rng rng(seed);
    rules_ = MakeRules(rng);
    uint64_t digest = kFnvOffset;
    for (const Rule& r : rules_) digest = Fnv1a(r.pattern, digest);

    // Batch shapes (flow sizes, the elephant's size and slot) are the same
    // for every seed: a seed-dependent shape would move the batch latency
    // between seeds as much as a real change would. The seed draws the
    // rules and every byte of content.
    cfgtag::Rng shape(kShapeSeed);
    std::vector<int> elephant_x(kWindows);
    for (size_t w = 0; w < kWindows; ++w) {
      elephant_x[w] = kMinElephant + static_cast<int>(
          w * (kMaxElephant - kMinElephant) / (kWindows - 1));
    }
    Shuffle(&elephant_x, shape);
    const int mean_requests = (kMinRequests + kMaxRequests) / 2;

    flows_.assign(kWindows * kFlowsPerWindow, "");
    expected_.assign(flows_.size(), {});
    planted_true_ = planted_decoys_ = 0;
    for (size_t w = 0; w < kWindows; ++w) {
      std::vector<int> sizes;
      for (size_t j = 0; j + 1 < kFlowsPerWindow; ++j) {
        sizes.push_back(kMinRequests + static_cast<int>(
            j * (kMaxRequests - kMinRequests) / (kFlowsPerWindow - 2)));
      }
      Shuffle(&sizes, shape);
      sizes.insert(sizes.begin() + static_cast<long>(
                       shape.NextIndex(kFlowsPerWindow)),
                   elephant_x[w] * mean_requests);
      for (size_t j = 0; j < kFlowsPerWindow; ++j) {
        const size_t f = w * kFlowsPerWindow + j;
        for (int r = 0; r < sizes[j]; ++r) {
          AppendRequest(rng, &flows_[f], &expected_[f]);
        }
        std::sort(expected_[f].begin(), expected_[f].end(), AlertLess);
        digest = Fnv1a(flows_[f], digest);
      }
    }
    windows_.assign(kWindows, {});
    window_bytes_.assign(kWindows, 0);
    for (size_t f = 0; f < flows_.size(); ++f) {
      windows_[f / kFlowsPerWindow].push_back(flows_[f]);
      window_bytes_[f / kFlowsPerWindow] += flows_[f].size();
    }
    return digest;
  }

  // The first scans a fresh filter sees are a single flow: the library
  // builds its lazy step tables unsynchronised on first use (see
  // FreshBatchMismatches), and one flow builds them on one thread.
  bool Setup(SpanRecorder* trace) override {
    std::unique_ptr<ContextFilter> filter;
    std::unique_ptr<ScanEngine> engine;  // borrows *filter
    if (!Build(trace, &filter, &engine)) return false;
    std::vector<cfgtag::nids::StreamResult> first;
    {
      BenchSpan span(trace, "nids.ScanBatch");
      first = engine->ScanBatch({flows_[0]});
    }
    if (!engine_) {
      filter_ = std::move(filter);
      engine_ = std::move(engine);
    }
    return CountAlertMismatches(expected_[0], first[0].alerts) == 0 ||
           Fail("first flow's alerts differ from the planted set");
  }

  // Alert mismatches, summed over `trials` freshly built filters, of one
  // ScanBatch over a whole window as each filter's first scan. Empty when
  // a filter cannot be built.
  std::optional<size_t> FreshBatchMismatches(int trials) {
    size_t mismatches = 0;
    for (int t = 0; t < trials; ++t) {
      std::unique_ptr<ContextFilter> filter;
      std::unique_ptr<ScanEngine> engine;  // borrows *filter
      if (!Build(nullptr, &filter, &engine)) return std::nullopt;
      const std::vector<cfgtag::nids::StreamResult> results =
          engine->ScanBatch(windows_[0]);
      for (size_t j = 0; j < kFlowsPerWindow; ++j) {
        mismatches += CountAlertMismatches(expected_[j], results[j].alerts);
      }
    }
    return mismatches;
  }

  OpResult RunOp(uint64_t i, SpanRecorder* trace) override {
    const size_t w = i % kWindows;
    if (!engine_) return {false, window_bytes_[w]};
    std::vector<cfgtag::nids::StreamResult> results;
    {
      BenchSpan span(trace, "nids.ScanBatch");
      results = engine_->ScanBatch(windows_[w]);
    }
    size_t mismatches = 0;
    for (size_t j = 0; j < kFlowsPerWindow; ++j) {
      mismatches += CountAlertMismatches(
          expected_[w * kFlowsPerWindow + j], results[j].alerts);
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "nids_batch: window %zu: %zu alert mismatches\n",
                   w, mismatches);
    }
    return {mismatches == 0, window_bytes_[w]};
  }

  int Workers() const override { return NumCores(); }

  int Probe(SpanRecorder* trace, Metrics* out) override {
    if (!filter_) return 1;
    int failed = 0;
    auto grammar = cfgtag::grammar::ParseGrammar(text_);
    if (!grammar.ok()) return 1;
    const CompileLayers compile = ProbeCompile(
        &text_, *grammar, FilterOptions(), flows_[0], 9, trace);
    failed += compile.ok ? 0 : 1;
    AddCompileMetrics({compile}, out);
    AddTagMetrics(ProbeTag(filter_->tagger(), windows_[0], 0.3, trace), out);

    // Sequential per-flow Scan, Tag and ScanContextFree over two windows,
    // against one ScanBatch of the same window (median of three).
    const size_t cf_rule = rules_.size() - 1;
    constexpr size_t kProbeWindows = 2;
    double scan_us = 0, tag_us = 0, cf_us = 0, batch_us = 0, critical = 0;
    double bytes = 0, spans = 0, alerts = 0;
    for (size_t w = 0; w < kProbeWindows; ++w) {
      double longest_us = 0;
      for (size_t j = 0; j < kFlowsPerWindow; ++j) {
        const size_t f = w * kFlowsPerWindow + j;
        cfgtag::nids::ScanStats stats;
        std::vector<Alert> seq, cf;
        const double us = TimedUs(trace, "nids.Scan", [&] {
          seq = filter_->Scan(flows_[f], &stats);
        });
        scan_us += us;
        longest_us = std::max(longest_us, us);
        tag_us += TimedUs(trace, "core.Tag", [&] {
          filter_->tagger().Tag(flows_[f], [](const cfgtag::tagger::Tag&) {
            return true;
          });
        });
        cf_us += TimedUs(trace, "nids.ScanContextFree",
                         [&] { cf = filter_->ScanContextFree(flows_[f]); });
        std::vector<Alert> expected_cf;
        for (const Alert& a : expected_[f]) {
          if (a.rule_index == cf_rule) expected_cf.push_back(a);
        }
        failed += CountAlertMismatches(expected_[f], seq) == 0 ? 0 : 1;
        failed += CountAlertMismatches(expected_cf, cf) == 0 ? 0 : 1;
        bytes += static_cast<double>(stats.bytes);
        spans += static_cast<double>(stats.spans_scanned);
        alerts += static_cast<double>(stats.alerts);
      }
      std::vector<double> batch;
      for (int r = 0; r < 3; ++r) {
        batch.push_back(TimedUs(trace, "nids.ScanBatch", [&] {
          failed += RunOp(w, nullptr).ok ? 0 : 1;
        }));
      }
      batch_us += Median(batch);
      critical += Median(batch) / longest_us / kProbeWindows;
    }
    Metrics& m = *out;
    m["nids.scan_ns_per_byte"] = {scan_us * 1e3 / bytes, "ns/B"};
    m["nids.span_match_ns_per_byte"] = {(scan_us - tag_us) * 1e3 / bytes,
                                        "ns/B"};
    m["nids.context_free_ns_per_byte"] = {cf_us * 1e3 / bytes, "ns/B"};
    m["nids.spans_per_byte"] = {spans / bytes, "1/B"};
    m["nids.alerts"] = {alerts, "count"};
    m["nids.engine_speedup"] = {scan_us / batch_us, "ratio"};
    m["nids.critical_path_ratio"] = {critical, "ratio"};
    std::fprintf(stderr,
                 "nids_batch: planted %zu true alerts and %zu decoys; the "
                 "probe windows raised %.0f alerts\n",
                 planted_true_, planted_decoys_, alerts);
    return failed;
  }

  std::string Engines() const override {
    return filter_ ? EngineName(filter_->tagger()) : "none";
  }

 private:
  template <typename T>
  static void Shuffle(std::vector<T>* v, cfgtag::Rng& rng) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.NextIndex(i)]);
    }
  }

  // "REQ <path> HDR <value> END\n". About 5% of requests plant a
  // PATH-bound signature in the path (a true alert), about 10% plant one in
  // the header value (a decoy the grammar context must suppress), and 3%
  // plant the context-free pattern in either, where it always alerts.
  void AppendRequest(cfgtag::Rng& rng, std::string* flow,
                     std::vector<Alert>* expected) {
    const std::string filler(kFiller);
    const size_t cf_rule = rules_.size() - 1;
    const auto plant = [&](size_t rule) {
      *flow += rules_[rule].pattern;
      expected->push_back({rule, flow->size() - 1});
    };
    const double u = rng.NextDouble();
    const bool cf = rng.NextBool(0.03);
    const bool cf_in_path = rng.NextBool(0.5);

    *flow += "REQ /" + rng.NextString(3 + rng.NextIndex(6), filler) + "/";
    if (u < 0.05) {
      plant(rng.NextIndex(cf_rule));
      *flow += "/";
      ++planted_true_;
    }
    if (cf && cf_in_path) {
      plant(cf_rule);
      *flow += "/";
    }
    *flow += rng.NextString(3 + rng.NextIndex(6), filler) + ".php HDR agent-";
    if (u >= 0.05 && u < 0.15) {
      const size_t rule = rng.NextIndex(cf_rule);
      *flow += rules_[rule].pattern;  // no alert: wrong context
      ++planted_decoys_;
    } else {
      *flow += rng.NextString(3 + rng.NextIndex(6), filler);
    }
    if (cf && !cf_in_path) {
      *flow += "-";
      plant(cf_rule);
    }
    *flow += "-v" + std::to_string(rng.NextIndex(10)) + " END\n";
  }

  // Grammar text -> filter -> engine with one worker per core.
  bool Build(SpanRecorder* trace, std::unique_ptr<ContextFilter>* filter,
             std::unique_ptr<ScanEngine>* engine) {
    cfgtag::StatusOr<cfgtag::grammar::Grammar> grammar =
        cfgtag::InternalError("unset");
    {
      BenchSpan span(trace, "grammar.ParseGrammar");
      grammar = cfgtag::grammar::ParseGrammar(text_);
    }
    if (!grammar.ok()) return Fail(grammar.status().ToString());
    {
      BenchSpan span(trace, "nids.Create");
      auto created =
          ContextFilter::Create(std::move(*grammar), rules_, FilterOptions());
      if (!created.ok()) return Fail(created.status().ToString());
      *filter = std::make_unique<ContextFilter>(std::move(created).value());
    }
    BenchSpan span(trace, "nids.ScanEngine");
    cfgtag::nids::ScanEngineOptions options;
    options.num_threads = NumCores();
    *engine = std::make_unique<ScanEngine>(filter->get(), options);
    return true;
  }

  static bool Fail(const std::string& why) {
    std::fprintf(stderr, "nids_batch: %s\n", why.c_str());
    return false;
  }

  std::string text_;
  std::vector<Rule> rules_;
  std::vector<std::string> flows_;
  std::vector<std::vector<Alert>> expected_;  // per flow, sorted
  std::vector<std::vector<std::string_view>> windows_;
  std::vector<uint64_t> window_bytes_;
  size_t planted_true_ = 0, planted_decoys_ = 0;
  std::unique_ptr<ContextFilter> filter_;
  std::unique_ptr<ScanEngine> engine_;  // borrows filter_
};

}  // namespace

size_t CountAlertMismatches(std::vector<Alert> expected,
                            std::vector<Alert> actual) {
  std::sort(expected.begin(), expected.end(), AlertLess);
  std::sort(actual.begin(), actual.end(), AlertLess);
  std::vector<Alert> diff;
  std::set_symmetric_difference(expected.begin(), expected.end(),
                                actual.begin(), actual.end(),
                                std::back_inserter(diff), AlertLess);
  return diff.size();
}

std::unique_ptr<Workload> MakeNidsBatchWorkload(const std::string& data_dir) {
  std::string text;
  if (!ReadFile(data_dir + "/nids_request.grm", &text)) return nullptr;
  return std::make_unique<NidsBatchWorkload>(std::move(text));
}

std::optional<size_t> FreshBatchMismatches(const std::string& data_dir,
                                           uint64_t seed, int trials) {
  std::string text;
  if (!ReadFile(data_dir + "/nids_request.grm", &text)) return std::nullopt;
  NidsBatchWorkload workload(std::move(text));
  workload.Generate(seed);
  return workload.FreshBatchMismatches(trials);
}

}  // namespace cfgbench
