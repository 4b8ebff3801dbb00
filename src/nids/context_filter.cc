#include "nids/context_filter.h"

#include <algorithm>

#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cfgtag::nids {

namespace {

// The registry is the system of record for scan accounting; the ScanStats
// out-parameter is a per-call delta of the same counters.
struct ScanMetrics {
  obs::Counter* scans;
  obs::Counter* bytes;
  obs::Counter* tokens;
  obs::Counter* spans;
  obs::Counter* alerts;
  obs::Histogram* latency;

  static const ScanMetrics& Get() {
    static const ScanMetrics* const kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      auto* m = new ScanMetrics;
      m->scans = reg.GetCounter("cfgtag_nids_scans_total",
                                "ContextFilter::Scan invocations");
      m->bytes = reg.GetCounter("cfgtag_nids_bytes_total",
                                "Stream bytes scanned by ContextFilter");
      m->tokens = reg.GetCounter("cfgtag_nids_tokens_total",
                                 "Tags seen while scanning");
      m->spans = reg.GetCounter(
          "cfgtag_nids_spans_scanned_total",
          "Context spans handed to the pattern matcher");
      m->alerts = reg.GetCounter("cfgtag_nids_alerts_total",
                                 "Alerts raised by ContextFilter");
      m->latency = reg.GetHistogram("cfgtag_nids_scan_seconds",
                                    "Per-message Scan() wall time");
      return m;
    }();
    return *kMetrics;
  }
};

// Appends one alert per match of `matcher` over `view`, whose first byte
// is stream offset `base`.
void AppendMatches(const SpanMatcher& matcher, std::string_view view,
                   uint64_t base, std::vector<Alert>* alerts) {
  matcher.ScanWith(view, [&](uint32_t rule, uint64_t end) {
    alerts->push_back(Alert{rule, base + end});
    return true;
  });
}

}  // namespace

StatusOr<ContextFilter> ContextFilter::Create(grammar::Grammar grammar,
                                              std::vector<Rule> rules,
                                              const hwgen::HwOptions& options) {
  if (rules.empty()) {
    return InvalidArgumentError("a filter needs at least one rule");
  }
  // Patterns and rule indices per rule context; slot num_tokens holds the
  // context-free rules.
  const size_t num_tokens = grammar.NumTokens();
  std::vector<std::vector<std::string_view>> patterns(num_tokens + 1);
  std::vector<std::vector<uint32_t>> ids(num_tokens + 1);
  std::vector<std::string_view> all_patterns;
  std::vector<uint32_t> all_ids;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    if (r.pattern.empty()) {
      return InvalidArgumentError("rule '" + r.id + "' has an empty pattern");
    }
    size_t ctx = num_tokens;
    if (!r.context_token.empty()) {
      const int32_t t = grammar.FindToken(r.context_token);
      if (t < 0) {
        return NotFoundError("rule '" + r.id + "' binds to token '" +
                             r.context_token +
                             "' which the grammar does not define");
      }
      ctx = static_cast<size_t>(t);
    }
    patterns[ctx].push_back(r.pattern);
    ids[ctx].push_back(static_cast<uint32_t>(i));
    all_patterns.push_back(r.pattern);
    all_ids.push_back(static_cast<uint32_t>(i));
  }
  std::vector<SpanMatcher> matchers(num_tokens + 1);
  for (size_t ctx = 0; ctx <= num_tokens; ++ctx) {
    CFGTAG_ASSIGN_OR_RETURN(matchers[ctx],
                            SpanMatcher::Create(patterns[ctx], ids[ctx]));
  }
  CFGTAG_ASSIGN_OR_RETURN(SpanMatcher all_rules,
                          SpanMatcher::Create(all_patterns, all_ids));
  SpanMatcher context_free = std::move(matchers.back());
  matchers.pop_back();

  CFGTAG_ASSIGN_OR_RETURN(
      auto tagger, core::CompiledTagger::Compile(std::move(grammar), options));
  return ContextFilter(std::move(rules), std::move(tagger),
                       std::move(matchers), std::move(context_free),
                       std::move(all_rules));
}

void ContextFilter::OnTag(std::string_view stream, const tagger::Tag& tag,
                          TagScanState* st, std::vector<Alert>* alerts,
                          ScanStats* local) const {
  // Context spans from the tag stream, matched as the tags arrive: a
  // target token's span is (previous tag end, its own tag end]. When
  // consecutive tags share an end offset (two tokens detected at the same
  // byte), they share the same span — advancing past the shared offset
  // would silently drop the later tags' spans.
  local->tokens++;
  const uint64_t begin = !st->any_tag              ? 0
                         : tag.end == st->prev_end ? st->prev_begin
                                                   : st->prev_end + 1;
  // Tags arrive with nondecreasing ends, so begin <= tag.end always
  // holds; a trailing open-class token can report an end inside the
  // flush padding, which substr's count clamp absorbs.
  if (tag.token >= 0 &&
      static_cast<size_t>(tag.token) < token_matchers_.size() &&
      !token_matchers_[tag.token].empty() && begin < stream.size()) {
    local->spans_scanned++;
    AppendMatches(token_matchers_[tag.token],
                  stream.substr(begin, tag.end - begin + 1), begin, alerts);
  }
  st->prev_begin = begin;
  st->prev_end = tag.end;
  st->any_tag = true;
}

void ContextFilter::FinalizeAlerts(std::string_view global_view,
                                   std::vector<Alert>* alerts,
                                   ScanStats* local, ScanStats* stats) const {
  const ScanMetrics& metrics = ScanMetrics::Get();
  // Context-free rules run over the whole (consumed) stream.
  AppendMatches(context_free_, global_view, 0, alerts);

  std::stable_sort(
      alerts->begin(), alerts->end(),
      [](const Alert& a, const Alert& b) { return a.end < b.end; });
  local->alerts = alerts->size();
  if (!alerts->empty()) {
    // Flight-record every alert (rare; correlation id inherited from the
    // enclosing ScanEngine shard, if any) and fold per-rule counts into
    // the attribution table when the switch is on.
    for (const Alert& a : *alerts) {
      const Rule& rule = rules_[a.rule_index];
      obs::RecordEvent(obs::EventKind::kNidsAlert,
                       static_cast<int64_t>(a.end), rule.severity, rule.id);
    }
    if (obs::AttributionTable::enabled()) {
      std::vector<uint64_t> per_rule(rules_.size(), 0);
      for (const Alert& a : *alerts) ++per_rule[a.rule_index];
      for (size_t i = 0; i < per_rule.size(); ++i) {
        if (per_rule[i] != 0) {
          obs::AttributionTable::Default().AddRule(rules_[i].id, per_rule[i]);
        }
      }
    }
  }
  metrics.scans->Increment();
  metrics.bytes->Increment(local->bytes);
  metrics.tokens->Increment(local->tokens);
  metrics.spans->Increment(local->spans_scanned);
  metrics.alerts->Increment(local->alerts);
  if (stats != nullptr) *stats = *local;
}

std::vector<Alert> ContextFilter::Scan(std::string_view stream,
                                       ScanStats* stats) const {
  const ScanMetrics& metrics = ScanMetrics::Get();
  obs::ScopedSpan span("nids.Scan");
  obs::ScopedTimer timer(metrics.latency);
  ScanStats local;
  local.bytes = stream.size();
  std::vector<Alert> alerts;
  TagScanState st;
  tagger_.Tag(stream, [&](const tagger::Tag& tag) {
    OnTag(stream, tag, &st, &alerts, &local);
    return true;
  });
  FinalizeAlerts(stream, &alerts, &local, stats);
  return alerts;
}

Status ContextFilter::Scan(std::string_view stream,
                           const core::resilience::ScanControl& control,
                           std::vector<Alert>* alerts, ScanStats* stats,
                           std::atomic<uint64_t>* progress) const {
  const ScanMetrics& metrics = ScanMetrics::Get();
  obs::ScopedSpan span("nids.Scan");
  obs::ScopedTimer timer(metrics.latency);
  alerts->clear();
  ScanStats local;
  TagScanState st;
  uint64_t consumed = 0;
  const Status status = tagger_.TagWithControl(
      stream,
      [&](const tagger::Tag& tag) {
        OnTag(stream, tag, &st, alerts, &local);
        return true;
      },
      control, progress, &consumed);
  // On a trip the scan stopped at `consumed`: account only those bytes
  // and run the context-free pass over exactly that prefix, so the
  // partial result is precisely "the alerts for stream[0, consumed)".
  local.bytes = consumed;
  FinalizeAlerts(stream.substr(0, consumed), alerts, &local, stats);
  return status;
}

std::vector<Alert> ContextFilter::ScanContextFree(
    std::string_view stream) const {
  std::vector<Alert> alerts;
  AppendMatches(context_free_, stream, 0, &alerts);
  return alerts;
}

std::vector<Alert> ContextFilter::ScanUngated(std::string_view stream) const {
  std::vector<Alert> alerts;
  AppendMatches(all_rules_, stream, 0, &alerts);
  return alerts;
}

}  // namespace cfgtag::nids
