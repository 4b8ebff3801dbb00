#include "tagger/lazy_dfa.h"

#include <algorithm>

#include "core/resilience/fault_injector.h"
#include "obs/attribution.h"
#include "obs/events.h"

namespace cfgtag::tagger {

void AotDfaTable::Prepare() {
  index.Clear();
  for (size_t i = 0; i < states.size(); ++i) {
    index.Insert(states[i].hash, static_cast<uint32_t>(i));
  }
}

const DfaCacheMetrics& DfaCacheMetrics::Get() {
  static const DfaCacheMetrics kMetrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return DfaCacheMetrics{
        reg.GetCounter("cfgtag_dfa_cache_states",
                       "DFA configurations interned by lazy-DFA sessions"),
        reg.GetCounter("cfgtag_dfa_cache_flushes",
                       "Lazy-DFA transition caches dropped at the byte cap"),
        reg.GetCounter("cfgtag_dfa_cache_fallbacks",
                       "Lazy-DFA sessions that fell back to fused execution "
                       "after repeated cache flushes")};
  }();
  return kMetrics;
}

// --------------------------------------------------------- LazyDfaTagger

LazyDfaTagger::LazyDfaTagger(FusedTagger fused,
                             std::shared_ptr<const AotDfaTable> aot,
                             bool cache)
    : fused_(std::move(fused)),
      aot_(std::move(aot)),
      cache_(cache),
      session_pool_(std::make_shared<LazyDfaSessionPool>()) {}

StatusOr<LazyDfaTagger> LazyDfaTagger::Create(const grammar::Grammar* grammar,
                                              const TaggerOptions& options) {
  CFGTAG_ASSIGN_OR_RETURN(FusedTagger fused,
                          FusedTagger::Create(grammar, options));
  return Wrap(std::move(fused));
}

LazyDfaTagger LazyDfaTagger::Wrap(FusedTagger fused,
                                  std::shared_ptr<const AotDfaTable> aot,
                                  bool cache) {
  return LazyDfaTagger(std::move(fused), std::move(aot), cache);
}

void LazyDfaTagger::Run(std::string_view input, const TagSink& sink) const {
  LazyDfaSessionPool::Handle session = session_pool_->Acquire(this);
  session->Feed(input, sink);
  session->Finish(sink);
}

std::vector<Tag> LazyDfaTagger::TagAll(std::string_view input) const {
  std::vector<Tag> tags;
  Run(input, [&tags](const Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

// -------------------------------------------------------- LazyDfaSession

LazyDfaSession::LazyDfaSession(const LazyDfaTagger* tagger)
    : tagger_(nullptr), scratch_(&tagger->fused()) {
  Rebind(tagger);
}

void LazyDfaSession::Rebind(const LazyDfaTagger* tagger) {
  if (tagger != tagger_) {
    // As with FusedSession::Rebind: the old tagger may be gone, so drop
    // (not merge) any unflushed attribution.
    attr_dirty_ = false;
    std::fill(attr_matches_.begin(), attr_matches_.end(), 0);
    attr_dfa_hits_ = attr_dfa_misses_ = 0;
    tagger_ = tagger;
    scratch_.Rebind(&tagger_->fused());
    num_classes_ = tagger_->fused().NumByteClasses();
    aot_ = tagger_->aot();
    flushes_ = 0;
    imports_ = 0;
    // A non-caching tagger's sessions start (and stay) on the fused path.
    fallback_ = !tagger_->caches();
    ClearCache();
  }
  Reset();
}

void LazyDfaSession::ClearCache() {
  dfa_.Clear();
  cache_bytes_ = 0;
  budget_.ReleaseAll();
  if (fallback_) {
    // The fused path never reads the table; free it.
    std::vector<uint32_t>().swap(next_);
    std::vector<uint32_t>().swap(emit_ref_);
    std::vector<uint32_t>().swap(twin_);
    std::vector<EmitSpan>().swap(emit_spans_);
    std::vector<int32_t>().swap(emit_pool_);
  } else {
    next_.clear();
    emit_ref_.clear();
    twin_.clear();
    emit_spans_.assign(1, EmitSpan{});
    emit_pool_.clear();
  }
}

void LazyDfaSession::Reset() {
  FlushAttribution();
  attr_on_ = obs::AttributionTable::enabled();
  if (attr_on_ &&
      attr_matches_.size() != tagger_->grammar().NumTokens()) {
    attr_matches_.assign(tagger_->grammar().NumTokens(), 0);
  }
  consumed_ = 0;
  emit_cutoff_ = ~uint64_t{0};
  tags_delivered_ = 0;
  finished_ = false;
  stopped_ = false;
  if (fallback_) {
    // In fallback the scratch session runs the real stream, so it counts
    // for itself (its Reset() resamples the attribution switch).
    scratch_.Reset();
    return;
  }
  // Build steps must never count: every emission they produce is replayed
  // (and counted) from the cache.
  scratch_.attr_on_ = false;
  // Intern (or find) the stream-start configuration.
  dfa_.Start(tagger_->fused());
  state_ = static_cast<uint32_t>(InternState(kNoDfaState) * num_classes_);
}

uint32_t LazyDfaSession::InternState(uint32_t twin) {
  const size_t before = dfa_.size();
  const uint32_t id = dfa_.Intern();
  if (dfa_.size() == before) return id;
  const DfaStateInfo& info = dfa_[id];
  if (twin == kNoDfaState && aot_ != nullptr) {
    twin = aot_->Find(info, dfa_.words(info));
  }
  twin_.push_back(twin);
  next_.resize(next_.size() + num_classes_, kUnbuiltEdge);
  emit_ref_.resize(emit_ref_.size() + num_classes_, 0);
  const size_t charged = sizeof(DfaStateInfo) + sizeof(uint32_t) +
                         num_classes_ * 2 * sizeof(uint32_t) +
                         (info.num_state + info.num_armed) * sizeof(WordBits) +
                         DfaIndex::kBytesPerState;
  cache_bytes_ += charged;
  budget_.Add(charged);
  DfaCacheMetrics::Get().states->Increment();
  return id;
}

void LazyDfaSession::MaterializeScratch() {
  const FusedTagger& f = tagger_->fused();
  const DfaStateInfo& info = dfa_[IdOf(state_)];
  scratch_.LoadConfig(dfa_.words(info), info.num_state, info.num_armed,
                      info.prev_delim != 0);
  scratch_.pos_ = consumed_;
  scratch_.stopped_ = stopped_;
  if (info.pending_cls >= 0) {
    scratch_.has_pending_ = true;
    scratch_.pending_ =
        f.classifier().Representative(static_cast<uint16_t>(info.pending_cls));
  }
}

void LazyDfaSession::SyncFromScratch() {
  consumed_ = scratch_.pos_;
  stopped_ = scratch_.stopped_;
}

void LazyDfaSession::EnterFallback() {
  // Order matters: the scratch session must absorb the current interned
  // configuration before the pools holding it are freed.
  MaterializeScratch();
  fallback_ = true;
  ClearCache();
  // From here the scratch session runs the real stream, so it takes over
  // attribution counting (LoadConfig does not resample the switch).
  scratch_.attr_on_ = attr_on_;
  if (attr_on_ &&
      scratch_.attr_matches_.size() != tagger_->grammar().NumTokens()) {
    scratch_.attr_matches_.assign(tagger_->grammar().NumTokens(), 0);
    // Live-word counts are per fused state word, not per token.
    scratch_.attr_live_.assign(tagger_->fused().NumStateWords(), 0);
  }
  DfaCacheMetrics::Get().fallbacks->Increment();
  obs::RecordEvent(obs::EventKind::kDfaCacheFallback,
                   static_cast<int64_t>(flushes_),
                   static_cast<int64_t>(consumed_),
                   "lazy-dfa session fell back to fused");
}

void LazyDfaSession::FlushAttribution() {
  if (!attr_dirty_) return;
  attr_dirty_ = false;
  obs::AttributionTable& table = obs::AttributionTable::Default();
  const std::vector<grammar::TokenDef>& tokens = tagger_->grammar().tokens();
  for (size_t tok = 0; tok < attr_matches_.size(); ++tok) {
    if (attr_matches_[tok] == 0) continue;
    table.AddToken(tokens[tok].name, attr_matches_[tok], /*live_words=*/0);
    attr_matches_[tok] = 0;
  }
  table.AddDfaCache(attr_dfa_hits_, attr_dfa_misses_);
  attr_dfa_hits_ = attr_dfa_misses_ = 0;
}

void LazyDfaSession::Flush() {
  ++flushes_;
  DfaCacheMetrics::Get().flushes->Increment();
  obs::RecordEvent(obs::EventKind::kDfaCacheFlush,
                   static_cast<int64_t>(cache_bytes_),
                   static_cast<int64_t>(flushes_), "dfa transition cache flush");
  if (flushes_ >= tagger_->options().dfa_flush_fallback) {
    EnterFallback();
    return;
  }
  // Copy the current configuration out of the pools, drop everything,
  // re-intern it as the sole survivor.
  const uint32_t id = IdOf(state_);
  const uint32_t twin = twin_[id];
  dfa_.Load(dfa_[id], dfa_.words(dfa_[id]));
  ClearCache();
  state_ = static_cast<uint32_t>(InternState(twin) * num_classes_);
}

bool LazyDfaSession::BuildTransition(uint8_t cls) {
  // The miss path is the only place the cache grows, so it is where
  // budget pressure (and the dfa.intern fault site) sheds the session to
  // fused stepping. The steady-state hit path never reaches here.
  if (core::resilience::ResourceBudget::Process().ShouldShedDfa() ||
      core::resilience::FaultInjector::ShouldFail("dfa.intern")) {
    EnterFallback();
    return false;
  }
  if (cache_bytes_ > tagger_->options().dfa_cache_bytes) {
    Flush();
    if (fallback_) return false;
  }
  const uint32_t id = IdOf(state_);
  const uint32_t emit_begin = static_cast<uint32_t>(emit_pool_.size());
  const uint32_t twin = twin_[id];
  const DfaTrans* baked =
      twin != kNoDfaState ? &aot_->trans[size_t{twin} * num_classes_ + cls]
                          : nullptr;
  uint32_t next_id;
  if (baked != nullptr && baked->next >= 0) {
    // Import: the twin's built edge hands over the successor and its
    // emissions, so no fused step runs. A successor already in the table
    // is found by its twin, without a configuration compare.
    const uint32_t dst = static_cast<uint32_t>(baked->next);
    const DfaStateInfo& dst_info = aot_->states[dst];
    next_id = dfa_.index().Find(
        dst_info.hash, [this, dst](uint32_t c) { return twin_[c] == dst; });
    if (next_id == kNoDfaState) {
      dfa_.Load(dst_info, aot_->snap_pool.data() + dst_info.snap_begin);
      next_id = InternState(dst);
    }
    const int32_t* tok = aot_->emit_pool.data() + baked->emit_begin;
    emit_pool_.insert(emit_pool_.end(), tok, tok + baked->emit_count);
    ++imports_;
  } else {
    dfa_.Step(id, cls, &scratch_, &emit_pool_);
    next_id = InternState(kNoDfaState);
  }
  // The edge's emissions were appended to the pool: [emit_begin, end).
  const size_t edge = size_t{state_} + cls;
  const uint32_t emitted = static_cast<uint32_t>(emit_pool_.size()) - emit_begin;
  if (emitted != 0) {
    emit_ref_[edge] = static_cast<uint32_t>(emit_spans_.size());
    emit_spans_.push_back(EmitSpan{emit_begin, emitted});
    const size_t list_bytes = sizeof(EmitSpan) + emitted * sizeof(int32_t);
    cache_bytes_ += list_bytes;
    budget_.Add(list_bytes);
  }
  next_[edge] = EncodeEdge(dfa_[id], dfa_[next_id],
                           static_cast<uint32_t>(next_id * num_classes_),
                           emitted != 0);
  return true;
}

const unsigned char* LazyDfaSession::SkipIdle(const DfaStateInfo& info,
                                              const unsigned char* p,
                                              const unsigned char* end) const {
  // Idle fast paths, the DFA rendition: a dead configuration cycles
  // through states differing only in pending class and delimiter flag, so
  // a whole inert run collapses to position arithmetic plus ONE real
  // transition on the run's last byte — which re-derives the exact
  // successor, because it is invariant across the run.
  const FusedTagger& f = tagger_->fused();
  const RunScanner& delim = f.delimiter_scanner();
  const RunScanner& arm = f.arm_scanner();
  const SkipMetrics& skips = SkipMetrics::Get();
  const ArmMode mode = f.options().arm_mode;
  const char* data = reinterpret_cast<const char*>(p);
  const size_t n = static_cast<size_t>(end - p);
  const uint8_t pending = static_cast<uint8_t>(info.pending_cls);
  const bool pending_delim = f.ClassIsDelim(pending);
  const bool armed = info.num_armed != 0;
  if (pending_delim && delim.Test(*p)) {
    // Delimiter run: dead + delimiter pending emits nothing and preserves
    // arms whatever the input, so jump to the run's end.
    const size_t j = delim.FindFirstNotIn(data, n);
    if (j > 1) {
      skips.Of(SkipMetrics::kDelimiter, delim.strategy())->Increment(j - 1);
      return p + j - 1;
    }
  } else if (!armed && mode == ArmMode::kAnchored) {
    // Dead stream: anchored arming can never re-inject; only the last
    // byte is fed (keeping the pending machinery consistent).
    if (n > 1) {
      skips.Of(SkipMetrics::kAnchored, SkipStrategy::kNone)->Increment(n - 1);
      return end - 1;
    }
  } else if (!armed && mode == ArmMode::kResync && !info.prev_delim &&
             !pending_delim && !delim.Test(*p)) {
    // Mid-garbage in resync mode: start injection waits for the next
    // delimiter, so non-delimiter bytes are inert.
    const size_t j = delim.FindFirstIn(data, n);
    if (j > 1) {
      skips.Of(SkipMetrics::kResync, delim.strategy())->Increment(j - 1);
      return p + j - 1;
    }
  } else if (!armed && mode == ArmMode::kScan && !f.ClassCanArm(pending) &&
             !arm.Test(*p)) {
    // Armed-byte prefilter, DFA rendition: fully idle in scan mode, bytes
    // that cannot start any token are inert, so jump to the last such
    // byte and take one real transition there. The run may mix garbage
    // and delimiters (delimiters never arm); the intermediate states
    // differ only in pending class and delimiter flag, neither of which
    // scan mode's injection reads, so the tags are exact.
    const size_t j = arm.FindFirstIn(data, n);
    if (j > 1) {
      skips.Of(SkipMetrics::kArmed, arm.strategy())->Increment(j - 1);
      return p + j - 1;
    }
  }
  return p;
}

TagSink LazyDfaSession::FallbackSink(const TagSink& sink) {
  return [this, &sink](const Tag& tag) {
    return !PassCutoff(tag.end) || sink(tag);
  };
}

void LazyDfaSession::FeedFallback(std::string_view chunk,
                                  const TagSink& sink) {
  scratch_.Feed(chunk, FallbackSink(sink));
  SyncFromScratch();
}

void LazyDfaSession::Feed(std::string_view chunk, const TagSink& sink) {
  if (finished_ || stopped_ || chunk.empty()) return;
  if (fallback_) {
    FeedFallback(chunk, sink);
    return;
  }
  if (attr_on_) attr_dirty_ = true;
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  const unsigned char* const begin =
      reinterpret_cast<const unsigned char*>(chunk.data());
  const unsigned char* const end = begin + chunk.size();
  const unsigned char* p = begin;
  // The stream position of byte p is base + (p - begin): every byte
  // consumes one position except the absorb out of the stream-start
  // state, which moves base back by one.
  uint64_t base = consumed_;
  const uint32_t* next = next_.data();
  uint32_t s = state_;
  bool idle = IdleEligible(dfa_[IdOf(s)]);
  while (p < end) {
    if (idle) p = SkipIdle(dfa_[IdOf(s)], p, end);
    // The warm loop: fast edges never emit, never enter an idle-eligible
    // state and never leave the stream-start state.
    const unsigned char* const run = p;
    uint32_t e;
    for (;;) {
      e = next[s + class_of[*p]];
      if (e & kSlowEdge) break;
      s = e;
      if (++p == end) break;
    }
    if (attr_on_) attr_dfa_hits_ += static_cast<uint64_t>(p - run);
    if (p == end) break;
    const uint8_t cls = class_of[*p];
    if (e == kUnbuiltEdge) {
      if (attr_on_) ++attr_dfa_misses_;
      state_ = s;
      consumed_ = base + static_cast<uint64_t>(p - begin);
      if (!BuildTransition(cls)) {
        // The scratch session holds the exact current configuration and
        // stream position; the rest of the stream runs pure fused.
        FeedFallback(std::string_view(reinterpret_cast<const char*>(p),
                                      static_cast<size_t>(end - p)),
                     sink);
        return;
      }
      s = state_;  // a flush re-interns the current state
      next = next_.data();
      e = next[s + cls];
    } else if (attr_on_) {
      ++attr_dfa_hits_;
    }
    if (dfa_[IdOf(s)].pending_cls < 0) {
      --base;  // absorb: the byte only becomes the pending look-ahead
    } else if (const uint32_t ref = emit_ref_[s + cls]; ref != 0) {
      const EmitSpan span = emit_spans_[ref];
      const uint64_t at = base + static_cast<uint64_t>(p - begin);
      const int32_t* tok = emit_pool_.data() + span.begin;
      for (uint32_t k = 0; k < span.count; ++k) Deliver(tok[k], at, sink);
    }
    s = e & ~kSlowEdge;
    ++p;
    if (stopped_) break;
    idle = IdleEligible(dfa_[IdOf(s)]);
  }
  state_ = s;
  consumed_ = base + static_cast<uint64_t>(p - begin);
}

void LazyDfaSession::Finish(const TagSink& sink) {
  if (finished_) return;
  finished_ = true;
  if (fallback_) {
    scratch_.Finish(FallbackSink(sink));  // scratch merges its attribution
    SyncFromScratch();
    FlushAttribution();
    return;
  }
  if (!stopped_ && dfa_[IdOf(state_)].pending_cls >= 0) {
    // One real fused step with no look-ahead; not worth caching (once per
    // stream), and the class representative is again exact. The scratch
    // step does not count attribution; Deliver tallies the final byte's
    // emissions as it does on replay.
    MaterializeScratch();
    scratch_.Finish([this, &sink](const Tag& tag) {
      Deliver(tag.token, tag.end, sink);
      return !stopped_;
    });
    SyncFromScratch();
  }
  FlushAttribution();
}

}  // namespace cfgtag::tagger
