#include "tagger/lazy_dfa.h"

#include <algorithm>

#include "core/resilience/fault_injector.h"
#include "obs/attribution.h"
#include "obs/events.h"

namespace cfgtag::tagger {

namespace {

// Approximate per-state index cost (one unordered_multimap node plus
// bucket share) folded into the cache budget accounting.
constexpr size_t kIndexNodeBytes = 48;

// The configuration hash/equality primitives live in tagger/dfa_state.h,
// shared with the AOT determinizer so baked and runtime states always
// agree.

}  // namespace

void AotDfaTable::Prepare(TableView<DfaTrans> trans) {
  index.clear();
  for (size_t i = 0; i < states.size(); ++i) {
    index.emplace(states[i].hash, static_cast<int32_t>(i));
  }
  next.assign(trans.size(), kUnbuiltEdge);
  emit_ref.assign(trans.size(), 0);
  emit_spans.assign(1, EmitSpan{});
  for (size_t edge = 0; edge < trans.size(); ++edge) {
    const DfaTrans& tr = trans[edge];
    if (tr.next < 0) continue;
    const DfaStateInfo& src = states[edge / num_classes];
    const DfaStateInfo& dst = states[static_cast<size_t>(tr.next)];
    if (tr.emit_count != 0) {
      emit_ref[edge] = static_cast<uint32_t>(emit_spans.size());
      emit_spans.push_back(EmitSpan{tr.emit_begin, tr.emit_count});
    }
    next[edge] = EncodeEdge(
        src, dst, static_cast<uint32_t>(tr.next * num_classes),
        tr.emit_count != 0);
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
    num_aot_ = aot_ ? static_cast<uint32_t>(aot_->states.size()) : 0;
    flushes_ = 0;
    // A non-caching tagger's sessions start (and stay) on the fused path.
    fallback_ = !tagger_->caches();
    // The table holds another tagger's rows: ClearCache must copy the
    // whole prefix, not patch it.
    next_.clear();
    ClearCache();
  }
  Reset();
}

void LazyDfaSession::ClearCache() {
  states_.clear();
  snap_pool_.clear();
  index_.clear();
  cache_bytes_ = 0;
  budget_.ReleaseAll();
  const size_t prefix_edges = aot_ != nullptr ? aot_->next.size() : 0;
  if (fallback_) {
    // The fused path never reads the table; free it, baked prefix included.
    std::vector<uint32_t>().swap(next_);
    std::vector<uint32_t>().swap(emit_ref_);
    std::vector<EmitSpan>().swap(emit_spans_);
    std::vector<int32_t>().swap(emit_pool_);
    patched_.clear();
  } else if (aot_ != nullptr) {
    if (next_.size() >= prefix_edges) {
      // A flush: the prefix is in place and differs from the tagger's
      // rows only where runtime builds filled its unbuilt edges.
      for (const uint32_t edge : patched_) {
        next_[edge] = aot_->next[edge];
        emit_ref_[edge] = aot_->emit_ref[edge];
      }
      next_.resize(prefix_edges);
      emit_ref_.resize(prefix_edges);
      emit_spans_.resize(aot_->emit_spans.size());
      emit_pool_.resize(aot_->emit_pool.size());
    } else {
      next_.assign(aot_->next.begin(), aot_->next.end());
      emit_ref_.assign(aot_->emit_ref.begin(), aot_->emit_ref.end());
      emit_spans_.assign(aot_->emit_spans.begin(), aot_->emit_spans.end());
      emit_pool_.assign(aot_->emit_pool.begin(), aot_->emit_pool.end());
    }
    patched_.clear();
    // Not part of cache_bytes_ (a flush could not shrink it), but real
    // memory per session: the budget ladder must see it.
    budget_.Add(aot_->PrefixBytes());
  } else {
    next_.clear();
    emit_ref_.clear();
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
  // Intern (or find) the stream-start configuration: no live positions,
  // start tokens armed unless in scan mode, no pending byte.
  const FusedTagger& f = tagger_->fused();
  tmp_state_.clear();
  tmp_armed_.clear();
  if (f.options().arm_mode != ArmMode::kScan) {
    tmp_armed_.assign(f.start_first_.begin(), f.start_first_.end());
    std::sort(tmp_armed_.begin(), tmp_armed_.end(),
              [](const WordBits& a, const WordBits& b) {
                return a.word < b.word;
              });
  }
  state_ = static_cast<uint32_t>(
      InternState(tmp_state_, tmp_armed_, /*prev_delim=*/false,
                  /*pending_cls=*/-1) *
      num_classes_);
}

uint32_t LazyDfaSession::InternState(const std::vector<WordBits>& state,
                                     const std::vector<WordBits>& armed,
                                     bool prev_delim, int16_t pending_cls) {
  const uint8_t pd = prev_delim ? 1 : 0;
  const uint64_t h = HashDfaConfig(state.data(), state.size(), armed.data(),
                                   armed.size(), prev_delim, pending_cls);
  // Baked states first: their rows are always in the table prefix, so a
  // hit here costs the session nothing.
  if (aot_ != nullptr) {
    auto range = aot_->index.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      const DfaStateInfo& cand = aot_->states[static_cast<size_t>(it->second)];
      if (cand.pending_cls == pending_cls && cand.prev_delim == pd &&
          cand.num_state == state.size() && cand.num_armed == armed.size() &&
          SameWordRun(aot_->snap_pool.data() + cand.snap_begin, state.data(),
                      state.size()) &&
          SameWordRun(aot_->snap_pool.data() + cand.snap_begin + cand.num_state,
                      armed.data(), armed.size())) {
        return static_cast<uint32_t>(it->second);
      }
    }
  }
  auto range = index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    const DfaStateInfo& cand = states_[it->second];
    if (cand.pending_cls == pending_cls && cand.prev_delim == pd &&
        cand.num_state == state.size() && cand.num_armed == armed.size() &&
        SameWordRun(snap_pool_.data() + cand.snap_begin, state.data(),
                    state.size()) &&
        SameWordRun(snap_pool_.data() + cand.snap_begin + cand.num_state,
                    armed.data(), armed.size())) {
      return num_aot_ + it->second;
    }
  }
  DfaStateInfo info;
  info.hash = h;
  info.snap_begin = static_cast<uint32_t>(snap_pool_.size());
  info.num_state = static_cast<uint32_t>(state.size());
  info.num_armed = static_cast<uint32_t>(armed.size());
  info.pending_cls = pending_cls;
  info.prev_delim = pd;
  snap_pool_.insert(snap_pool_.end(), state.begin(), state.end());
  snap_pool_.insert(snap_pool_.end(), armed.begin(), armed.end());
  const uint32_t local = static_cast<uint32_t>(states_.size());
  states_.push_back(info);
  next_.resize(next_.size() + num_classes_, kUnbuiltEdge);
  emit_ref_.resize(emit_ref_.size() + num_classes_, 0);
  index_.emplace(h, local);
  const size_t charged = sizeof(DfaStateInfo) +
                         num_classes_ * 2 * sizeof(uint32_t) +
                         (state.size() + armed.size()) * sizeof(WordBits) +
                         kIndexNodeBytes;
  cache_bytes_ += charged;
  budget_.Add(charged);
  DfaCacheMetrics::Get().states->Increment();
  return num_aot_ + local;
}

void LazyDfaSession::MaterializeScratch() {
  const FusedTagger& f = tagger_->fused();
  const uint32_t id = IdOf(state_);
  const DfaStateInfo info = Info(id);
  const WordBits* snap = Snap(info, id);
  scratch_.LoadConfig(snap, info.num_state, snap + info.num_state,
                      info.num_armed, info.prev_delim != 0);
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
  const uint32_t id = IdOf(state_);
  if (id < num_aot_) {
    // The current state is baked: its row is part of the restored prefix,
    // so only the session's private states drop.
    ClearCache();
    return;
  }
  // Copy the current configuration out of the pools, drop everything,
  // re-intern it as the sole survivor.
  const DfaStateInfo info = Info(id);
  tmp_state_.assign(snap_pool_.begin() + info.snap_begin,
                    snap_pool_.begin() + info.snap_begin + info.num_state);
  tmp_armed_.assign(
      snap_pool_.begin() + info.snap_begin + info.num_state,
      snap_pool_.begin() + info.snap_begin + info.num_state + info.num_armed);
  ClearCache();
  state_ = static_cast<uint32_t>(
      InternState(tmp_state_, tmp_armed_, info.prev_delim != 0,
                  info.pending_cls) *
      num_classes_);
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
  const FusedTagger& f = tagger_->fused();
  const uint32_t id = IdOf(state_);
  const DfaStateInfo info = Info(id);
  const WordBits* snap = Snap(info, id);
  tmp_state_.clear();
  tmp_armed_.clear();
  tmp_emit_.clear();
  bool next_prev_delim;
  if (info.pending_cls < 0) {
    // Absorb: the input byte becomes the pending look-ahead; the machine
    // configuration is untouched and nothing emits.
    tmp_state_.assign(snap, snap + info.num_state);
    tmp_armed_.assign(snap + info.num_state,
                      snap + info.num_state + info.num_armed);
    next_prev_delim = info.prev_delim != 0;
  } else {
    // One real fused step on the class representatives — exact for every
    // byte of the class, since the engine only reads byte classes.
    scratch_.LoadConfig(snap, info.num_state, snap + info.num_state,
                        info.num_armed, info.prev_delim != 0);
    scratch_.pos_ = 0;
    scratch_.ProcessByte(
        f.classifier().Representative(static_cast<uint16_t>(info.pending_cls)),
        /*has_next=*/true, f.classifier().Representative(cls),
        [this](const Tag& t) {
          tmp_emit_.push_back(t.token);
          return true;
        });
    scratch_.SnapshotConfig(&tmp_state_, &tmp_armed_);
    next_prev_delim = scratch_.prev_was_delim_;
  }
  const uint32_t next_id = InternState(tmp_state_, tmp_armed_,
                                       next_prev_delim,
                                       static_cast<int16_t>(cls));
  const size_t edge = size_t{state_} + cls;
  if (id < num_aot_) patched_.push_back(static_cast<uint32_t>(edge));
  if (!tmp_emit_.empty()) {
    emit_ref_[edge] = static_cast<uint32_t>(emit_spans_.size());
    emit_spans_.push_back(EmitSpan{static_cast<uint32_t>(emit_pool_.size()),
                                   static_cast<uint32_t>(tmp_emit_.size())});
    emit_pool_.insert(emit_pool_.end(), tmp_emit_.begin(), tmp_emit_.end());
    const size_t list_bytes =
        sizeof(EmitSpan) + tmp_emit_.size() * sizeof(int32_t);
    cache_bytes_ += list_bytes;
    budget_.Add(list_bytes);
  }
  next_[edge] = EncodeEdge(info, Info(next_id),
                           static_cast<uint32_t>(next_id * num_classes_),
                           !tmp_emit_.empty());
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
  bool idle = IdleEligible(Info(IdOf(s)));
  while (p < end) {
    if (idle) p = SkipIdle(Info(IdOf(s)), p, end);
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
    if (Info(IdOf(s)).pending_cls < 0) {
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
    idle = IdleEligible(Info(IdOf(s)));
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
  if (!stopped_ && Info(IdOf(state_)).pending_cls >= 0) {
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
