// compile: grammar text -> first tag. A fixed mix of the five example
// grammars and the XML-RPC grammar duplicated 4x and 10x (the paper's
// Table 1 spans 300 to 3000 pattern bytes). Every scan layer is idle;
// grammar, hwgen and table building do the work. The paper's generator
// output (ExportVhdl) is timed by the traced run's probe.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "grammar/transforms.h"
#include "harness/probes.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "tagger/ll_parser.h"
#include "xmlrpc/message_gen.h"

namespace cfgbench {

namespace {

using cfgtag::core::CompiledTagger;
using cfgtag::grammar::Grammar;
using cfgtag::tagger::Tag;

constexpr char kAlnum[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

// Seeded sentences of each example grammar, for the first tag.
std::string ParensSentence(cfgtag::Rng& rng) {
  const size_t depth = 1 + rng.NextIndex(12);
  return std::string(depth, '(') + "0" + std::string(depth, ')');
}

std::string IfThenElseSentence(cfgtag::Rng& rng, int depth) {
  if (depth == 0 || rng.NextBool(0.3)) return rng.NextBool() ? "go" : "stop";
  return std::string("if ") + (rng.NextBool() ? "true" : "false") +
         " then " + IfThenElseSentence(rng, depth - 1) + " else " +
         IfThenElseSentence(rng, depth - 1);
}

std::string HttpSentence(cfgtag::Rng& rng) {
  static const char* const kMethods[] = {"GET", "POST", "HEAD"};
  const std::string value_chars = std::string(kAlnum) + "._-";
  std::string s = kMethods[rng.NextIndex(3)];
  s += " /" + rng.NextString(1 + rng.NextIndex(8), kAlnum) + "/" +
       rng.NextString(1 + rng.NextIndex(8), kAlnum) + ".html";
  s += rng.NextBool() ? " HTTP/1.0" : " HTTP/1.1";
  for (size_t h = rng.NextIndex(4); h > 0; --h) {
    s += rng.NextBool() ? "\nHost: " : "\nUser-Agent: ";
    s += rng.NextString(1 + rng.NextIndex(12), value_chars);
  }
  return s;
}

std::string JsonValue(cfgtag::Rng& rng, int depth) {
  const size_t kind = rng.NextIndex(depth > 0 ? 7 : 5);
  switch (kind) {
    case 0:
      return "\"" + rng.NextString(rng.NextIndex(9), kAlnum) + "\"";
    case 1:
      return (rng.NextBool() ? "-" : "") +
             std::to_string(rng.NextIndex(100000));
    case 2:
      return "true";
    case 3:
      return "false";
    case 4:
      return "null";
    case 5: {
      std::string s = "{";
      for (size_t i = 0, n = rng.NextIndex(4); i < n; ++i) {
        s += std::string(i ? ", " : " ") + "\"" +
             rng.NextString(1 + rng.NextIndex(6), kAlnum) +
             "\": " + JsonValue(rng, depth - 1);
      }
      return s + " }";
    }
    default: {
      std::string s = "[";
      for (size_t i = 0, n = rng.NextIndex(4); i < n; ++i) {
        s += std::string(i ? ", " : " ") + JsonValue(rng, depth - 1);
      }
      return s + " ]";
    }
  }
}

// Seeded sentences per grammar. Tagging a sentence on the 10x grammar costs
// a large share of the op and grows with the sentence, so ops and set-ups
// cycle through many sentences and no single draw sets a run's figures.
constexpr size_t kSentences = 32;

struct Entry {
  std::string file;
  int copies = 1;
  std::string text;
  std::vector<std::string> sentences;
  std::unique_ptr<Grammar> grammar;        // parsed (and duplicated) once
  std::vector<std::vector<Tag>> expected;  // LL(1) tags per sentence, sorted
};

class CompileWorkload : public Workload {
 public:
  explicit CompileWorkload(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  uint64_t Generate(uint64_t seed) override {
    cfgtag::Rng rng(seed);
    cfgtag::xmlrpc::MessageGenerator xmlrpc({}, seed + 1);
    oracle_failures_ = 0;
    uint64_t digest = kFnvOffset;
    setups_ = 0;
    for (Entry& e : entries_) {
      e.sentences.clear();
      digest = Fnv1a(e.text, digest);
      for (size_t k = 0; k < kSentences; ++k) {
        if (e.file == "xmlrpc.grm") {
          e.sentences.push_back(xmlrpc.Generate());
        } else if (e.file == "balanced_parens.grm") {
          e.sentences.push_back(ParensSentence(rng));
        } else if (e.file == "if_then_else.grm") {
          e.sentences.push_back(IfThenElseSentence(rng, 3));
        } else if (e.file == "http_request.grm") {
          e.sentences.push_back(HttpSentence(rng));
        } else {
          e.sentences.push_back(JsonValue(rng, 3));
        }
        digest = Fnv1a(e.sentences.back(), digest);
      }
      e.expected.clear();
      // Oracle: every example grammar must build an LL(1) parser, and the
      // first tag pass must cover its parse of the sentence.
      auto grammar = ParseAndDuplicate(e, nullptr);
      if (!grammar.ok()) {
        Fail(e, grammar.status().ToString());
        continue;
      }
      e.grammar = std::make_unique<Grammar>(std::move(*grammar));
      auto parser = cfgtag::tagger::PredictiveParser::Create(
          e.grammar.get(), cfgtag::hwgen::HwOptions().tagger);
      if (!parser.ok()) {
        Fail(e, "LL(1) oracle: " + parser.status().ToString());
        continue;
      }
      for (const std::string& sentence : e.sentences) {
        auto tags = parser->Parse(sentence);
        if (!tags.ok()) {
          Fail(e, "LL(1) oracle: " + tags.status().ToString());
          break;
        }
        e.expected.push_back(std::move(*tags));
        std::sort(e.expected.back().begin(), e.expected.back().end());
      }
    }
    return digest;
  }

  // The 1x XML-RPC grammar, on its sentences in turn.
  bool Setup(SpanRecorder* trace) override {
    return FirstTag(0, setups_++ % kSentences, trace);
  }

  // One op is text -> Compile -> first Tag, stepping through the mix and,
  // on each pass through it, to the next sentence.
  OpResult RunOp(uint64_t i, SpanRecorder* trace) override {
    const size_t n = entries_.size();
    const size_t k = (i / n) % kSentences;
    const Entry& e = entries_[i % n];
    return {FirstTag(i % n, k, trace), e.text.size() + e.sentences[k].size()};
  }

  int Probe(SpanRecorder* trace, Metrics* out) override {
    int failed = 0;
    std::vector<CompileLayers> layers;
    for (const Entry& e : entries_) {
      if (!e.grammar) return failed + 1;
      layers.push_back(ProbeCompile(&e.text, *e.grammar,
                                    cfgtag::hwgen::HwOptions(),
                                    e.sentences[0], 5, trace));
      failed += layers.back().ok ? 0 : 1;
    }
    AddCompileMetrics(layers, out);
    auto tagger = CompiledTagger::Compile(entries_[0].grammar->Clone());
    if (!tagger.ok()) return failed + 1;
    AddTagMetrics(ProbeTag(*tagger, {entries_[0].sentences[0]}, 0.2, trace),
                  out);
    return failed;
  }

  std::string Engines() const override {
    std::string out;
    for (const std::string& e : engines_) out += (out.empty() ? "" : ",") + e;
    return out;
  }

 private:
  cfgtag::StatusOr<Grammar> ParseAndDuplicate(const Entry& e,
                                              SpanRecorder* trace) {
    cfgtag::StatusOr<Grammar> g = cfgtag::InternalError("unset");
    {
      BenchSpan span(trace, "grammar.ParseGrammar");
      g = cfgtag::grammar::ParseGrammar(e.text);
    }
    if (!g.ok() || e.copies == 1) return g;
    BenchSpan span(trace, "grammar.DuplicateGrammar");
    return cfgtag::grammar::DuplicateGrammar(*g, e.copies);
  }

  cfgtag::StatusOr<CompiledTagger> Build(const Entry& e,
                                         SpanRecorder* trace) {
    auto grammar = ParseAndDuplicate(e, trace);
    if (!grammar.ok()) return grammar.status();
    BenchSpan span(trace, "core.Compile");
    return CompiledTagger::Compile(std::move(*grammar));
  }

  bool FirstTag(size_t i, size_t k, SpanRecorder* trace) {
    Entry& e = entries_[i];
    if (e.expected.size() != kSentences) return Fail(e, "no LL(1) oracle");
    auto tagger = Build(e, trace);
    if (!tagger.ok()) return Fail(e, tagger.status().ToString());
    engines_.insert(EngineName(*tagger));
    std::vector<Tag> tags;
    {
      BenchSpan span(trace, "core.Tag");
      tags = tagger->Tag(e.sentences[k]);
    }
    std::sort(tags.begin(), tags.end());
    for (const Tag& t : e.expected[k]) {
      if (!std::binary_search(tags.begin(), tags.end(), t)) {
        return Fail(e, "first tag pass misses an LL(1) tag");
      }
    }
    return oracle_failures_ == 0;
  }

  bool Fail(const Entry& e, const std::string& why) {
    std::fprintf(stderr, "compile: %s x%d: %s\n", e.file.c_str(), e.copies,
                 why.c_str());
    ++oracle_failures_;
    return false;
  }

  std::vector<Entry> entries_;
  size_t oracle_failures_ = 0;
  size_t setups_ = 0;
  std::set<std::string> engines_;
};

}  // namespace

std::unique_ptr<Workload> MakeCompileWorkload(const std::string& data_dir) {
  // The 1x XML-RPC grammar first: it is also the set-up grammar.
  const struct {
    const char* file;
    int copies;
  } kMix[] = {{"xmlrpc.grm", 1},          {"balanced_parens.grm", 1},
              {"http_request.grm", 1},    {"if_then_else.grm", 1},
              {"json_lite.grm", 1},       {"xmlrpc.grm", 4},
              {"xmlrpc.grm", 10}};
  std::vector<Entry> entries;
  for (const auto& m : kMix) {
    Entry e;
    e.file = m.file;
    e.copies = m.copies;
    if (!ReadFile(data_dir + "/" + m.file, &e.text)) return nullptr;
    entries.push_back(std::move(e));
  }
  return std::make_unique<CompileWorkload>(std::move(entries));
}

}  // namespace cfgbench
