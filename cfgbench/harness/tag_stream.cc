// tag_stream: the `cfgtagc --tag` path. One long newline-separated stream
// of generated XML-RPC messages, tagged in resync mode with the 1x Fig. 14
// grammar; the engine's per-byte loop does the work on live bytes. 512 KiB
// keeps a pass near 30 ms, so a run holds enough passes for a steady tail.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "harness/probes.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "tagger/ll_parser.h"
#include "xmlrpc/message_gen.h"

namespace cfgbench {

namespace {

using cfgtag::core::CompiledTagger;
using cfgtag::tagger::Tag;

constexpr size_t kStreamBytes = 1 << 19;

cfgtag::hwgen::HwOptions StreamOptions() {
  cfgtag::hwgen::HwOptions options;
  options.tagger.arm_mode = cfgtag::tagger::ArmMode::kResync;
  return options;
}

class TagStreamWorkload : public Workload {
 public:
  explicit TagStreamWorkload(std::string text) : text_(std::move(text)) {}

  uint64_t Generate(uint64_t seed) override {
    cfgtag::xmlrpc::MessageGenerator gen({}, seed);
    stream_.clear();
    first_message_ = 0;
    std::vector<size_t> starts;
    while (stream_.size() < kStreamBytes) {
      starts.push_back(stream_.size());
      stream_ += gen.Generate();
      if (first_message_ == 0) first_message_ = stream_.size();
      stream_.push_back('\n');
    }
    // Oracle: the LL(1) parse of each message, shifted to its stream
    // offset. The tagger's output must contain every one of these tags.
    expected_.clear();
    oracle_failures_ = 0;
    auto grammar = cfgtag::grammar::ParseGrammar(text_);
    if (grammar.ok()) {
      oracle_grammar_ =
          std::make_unique<cfgtag::grammar::Grammar>(std::move(*grammar));
      auto parser = cfgtag::tagger::PredictiveParser::Create(
          oracle_grammar_.get(), StreamOptions().tagger);
      for (size_t m = 0; parser.ok() && m < starts.size(); ++m) {
        // Each message ends one byte before the next starts (its '\n').
        const size_t end =
            (m + 1 < starts.size() ? starts[m + 1] : stream_.size()) - 1;
        auto tags = parser->Parse(
            std::string_view(stream_).substr(starts[m], end - starts[m]));
        if (!tags.ok()) {
          ++oracle_failures_;
          continue;
        }
        for (Tag t : *tags) {
          t.end += starts[m];
          expected_.push_back(t);
        }
      }
      if (!parser.ok()) ++oracle_failures_;
    } else {
      ++oracle_failures_;
    }
    std::sort(expected_.begin(), expected_.end());
    reference_.reset();
    return Fnv1a(stream_);
  }

  bool Setup(SpanRecorder* trace) override {
    cfgtag::StatusOr<cfgtag::grammar::Grammar> grammar =
        cfgtag::InternalError("unset");
    {
      BenchSpan span(trace, "grammar.ParseGrammar");
      grammar = cfgtag::grammar::ParseGrammar(text_);
    }
    if (!grammar.ok()) return Fail(grammar.status().ToString());
    cfgtag::StatusOr<CompiledTagger> tagger = cfgtag::InternalError("unset");
    {
      BenchSpan span(trace, "core.Compile");
      tagger = CompiledTagger::Compile(std::move(*grammar), StreamOptions());
    }
    if (!tagger.ok()) return Fail(tagger.status().ToString());
    // First result: the first tag. A superset of the LL(1) tags cannot
    // start later than the LL(1) parse does.
    std::optional<Tag> first;
    {
      BenchSpan span(trace, "core.Tag");
      tagger->Tag(stream_, [&first](const Tag& t) {
        first = t;
        return false;
      });
    }
    if (!tagger_) tagger_.emplace(std::move(tagger).value());
    if (!first || expected_.empty() || first->end > expected_.front().end) {
      return Fail("first tag is later than the LL(1) parse's first tag");
    }
    return oracle_failures_ == 0 || Fail("LL(1) oracle rejected a message");
  }

  OpResult RunOp(uint64_t, SpanRecorder* trace) override {
    if (!tagger_) return {false, stream_.size()};
    if (!reference_) return {FirstPass(trace), stream_.size()};
    Digest d;
    {
      BenchSpan span(trace, "core.Tag");
      tagger_->Tag(stream_, [&d](const Tag& t) {
        d.Add(t);
        return true;
      });
    }
    return {d.count == reference_->count && d.hash == reference_->hash,
            stream_.size()};
  }

  int Probe(SpanRecorder* trace, Metrics* out) override {
    if (!tagger_ || !oracle_grammar_) return 1;
    const CompileLayers compile = ProbeCompile(
        &text_, *oracle_grammar_, StreamOptions(),
        std::string_view(stream_).substr(0, first_message_), 9, trace);
    AddCompileMetrics({compile}, out);
    AddTagMetrics(ProbeTag(*tagger_, {stream_}, 0.5, trace), out);
    return compile.ok ? 0 : 1;
  }

  std::string Engines() const override {
    return tagger_ ? EngineName(*tagger_) : "none";
  }

 private:
  // Order-sensitive digest of a tag stream, cheap enough for the sink.
  struct Digest {
    uint64_t count = 0;
    uint64_t hash = kFnvOffset;
    void Add(const Tag& t) {
      ++count;
      hash = (hash ^ (t.end * 0x9E3779B97F4A7C15ull +
                      static_cast<uint64_t>(t.token))) *
             1099511628211ull;
    }
  };

  // The first timed-loop pass materializes the tags, checks LL(1)
  // coverage, and fixes the digest every later pass must reproduce.
  bool FirstPass(SpanRecorder* trace) {
    std::vector<Tag> tags;
    {
      BenchSpan span(trace, "core.Tag");
      tags = tagger_->Tag(stream_);
    }
    Digest d;
    for (const Tag& t : tags) d.Add(t);
    reference_ = d;
    std::sort(tags.begin(), tags.end());
    size_t missing = 0;
    for (const Tag& t : expected_) {
      missing += std::binary_search(tags.begin(), tags.end(), t) ? 0 : 1;
    }
    if (missing > 0) {
      std::fprintf(stderr, "tag_stream: %zu of %zu LL(1) tags missing\n",
                   missing, expected_.size());
    }
    std::fprintf(stderr, "tag_stream: LL(1) coverage %zu/%zu, %zu tags\n",
                 expected_.size() - missing, expected_.size(), tags.size());
    return missing == 0;
  }

  static bool Fail(const std::string& why) {
    std::fprintf(stderr, "tag_stream: %s\n", why.c_str());
    return false;
  }

  std::string text_;
  std::string stream_;
  size_t first_message_ = 0;
  std::unique_ptr<cfgtag::grammar::Grammar> oracle_grammar_;
  std::vector<Tag> expected_;
  size_t oracle_failures_ = 0;
  std::optional<Digest> reference_;
  std::optional<CompiledTagger> tagger_;
};

}  // namespace

std::unique_ptr<Workload> MakeTagStreamWorkload(const std::string& data_dir) {
  std::string text;
  if (!ReadFile(data_dir + "/xmlrpc.grm", &text)) return nullptr;
  return std::make_unique<TagStreamWorkload>(std::move(text));
}

}  // namespace cfgbench
