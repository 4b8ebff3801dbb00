#ifndef CFGTAG_NIDS_CONTEXT_FILTER_H_
#define CFGTAG_NIDS_CONTEXT_FILTER_H_

#include <string>
#include <string_view>
#include <vector>

#include <atomic>

#include "common/status.h"
#include "core/resilience/deadline.h"
#include "core/token_tagger.h"
#include "nids/span_matcher.h"

namespace cfgtag::nids {

// A detection signature bound to a grammatical context — the paper's §1/§3.5
// thesis turned into an engine: "by performing high-level analysis of
// content, the accuracy of network traffic analyzers can be improved".
struct Rule {
  std::string id;        // e.g. "TRAVERSAL-001"
  std::string pattern;   // raw byte pattern, matched as a substring
  // Name of the token whose spans the pattern applies to, e.g. "PATH".
  // Empty = context-free (matches anywhere — a naive Snort-style rule).
  std::string context_token;
  int severity = 1;      // 1 (info) .. 3 (critical)
};

struct Alert {
  size_t rule_index = 0;   // into rules()
  uint64_t end = 0;        // stream offset of the pattern's last byte

  friend bool operator==(const Alert& a, const Alert& b) {
    return a.rule_index == b.rule_index && a.end == b.end;
  }
};

// Per-call snapshot of one Scan(). The cumulative system of record is the
// default obs::MetricsRegistry (cfgtag_nids_* counters), which Scan()
// advances by exactly these deltas — this struct exists for callers that
// want the numbers for a single message without diffing the registry.
struct ScanStats {
  uint64_t bytes = 0;
  uint64_t tokens = 0;        // tags seen
  uint64_t spans_scanned = 0; // context spans handed to the matcher
  uint64_t alerts = 0;
};

// Streams bytes through the grammar tagger and applies each rule only
// inside the byte spans of its context token. Span recovery uses the tag
// stream: a context token's span ends at its tag offset and starts right
// after the previous tag in stream order (leading delimiter bytes are part
// of the span but cannot match, since patterns contain none). Tags that
// share an end offset — two tokens detected at the same byte — share the
// same span.
//
// Create() compiles one flat Aho–Corasick SpanMatcher per rule context:
// one per rule-bearing token over only that token's rules, one over the
// context-free rules and one over every rule (ScanUngated). Scan() streams
// tags out of a pooled TaggerSession and runs the tag's token matcher over
// each span as its tag arrives, so no tag vector is materialized and no
// match is filtered after the fact.
// Scan() is const and thread-safe: the scan engine calls it concurrently
// from many workers against one filter.
class ContextFilter {
 public:
  static StatusOr<ContextFilter> Create(grammar::Grammar grammar,
                                        std::vector<Rule> rules,
                                        const hwgen::HwOptions& options = {});

  // Scans one message/stream; alerts are reported in stream order.
  std::vector<Alert> Scan(std::string_view stream,
                          ScanStats* stats = nullptr) const;

  // Controlled scan: identical alerts to Scan() when the control never
  // trips; on kDeadlineExceeded / kCancelled, *alerts holds every alert
  // for the consumed prefix (context-bound alerts from the tags seen so
  // far, plus the context-free rules run over exactly that prefix), still
  // in stream order — a partial result with a precise meaning, not a
  // truncated one. `progress` is advanced past every fed chunk (the scan
  // engine watchdog's heartbeat).
  Status Scan(std::string_view stream,
              const core::resilience::ScanControl& control,
              std::vector<Alert>* alerts, ScanStats* stats = nullptr,
              std::atomic<uint64_t>* progress = nullptr) const;

  // Only the context-free rules (empty context_token), applied over the
  // whole stream — the same set Scan()'s global pass raises, without the
  // tagger running.
  std::vector<Alert> ScanContextFree(std::string_view stream) const;

  // Every rule applied context-free over the whole stream, bound ones
  // included (the naive baseline of the paper's introduction) — for
  // measuring what the context gating suppresses.
  std::vector<Alert> ScanUngated(std::string_view stream) const;

  const std::vector<Rule>& rules() const { return rules_; }
  const core::CompiledTagger& tagger() const { return tagger_; }

 private:
  ContextFilter(std::vector<Rule> rules, core::CompiledTagger tagger,
                std::vector<SpanMatcher> token_matchers,
                SpanMatcher context_free, SpanMatcher all_rules)
      : rules_(std::move(rules)),
        tagger_(std::move(tagger)),
        token_matchers_(std::move(token_matchers)),
        context_free_(std::move(context_free)),
        all_rules_(std::move(all_rules)) {}

  // Span-recovery state threaded through the tag stream (see Scan()).
  struct TagScanState {
    uint64_t prev_end = 0;
    uint64_t prev_begin = 0;
    bool any_tag = false;
  };
  // Handles one arriving tag: recovers its context span and matches the
  // bound rules over it. Shared verbatim by the fast and controlled scan
  // paths so their alert streams cannot drift apart.
  void OnTag(std::string_view stream, const tagger::Tag& tag,
             TagScanState* st, std::vector<Alert>* alerts,
             ScanStats* local) const;
  // Context-free pass over `global_view`, stream-order sort, alert
  // events/attribution, and the registry/stats accounting epilogue.
  void FinalizeAlerts(std::string_view global_view,
                      std::vector<Alert>* alerts, ScanStats* local,
                      ScanStats* stats) const;

  std::vector<Rule> rules_;
  core::CompiledTagger tagger_;
  // token_matchers_[token] matches the rules bound to `token` (empty for
  // a token without rules); context_free_ the rules with no context;
  // all_rules_ every rule. Each reports rule indices.
  std::vector<SpanMatcher> token_matchers_;
  SpanMatcher context_free_;
  SpanMatcher all_rules_;
};

}  // namespace cfgtag::nids

#endif  // CFGTAG_NIDS_CONTEXT_FILTER_H_
