#include "tagger/lazy_dfa.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
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
    row_recip_ = ((uint64_t{1} << 32) + num_classes_ - 1) / num_classes_;
    aot_ = tagger_->aot();
    flushes_ = 0;
    imports_ = 0;
    lane_windows_ = 0;
    lane_guess_misses_ = 0;
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
  std::fill(std::begin(memo_), std::end(memo_), Memo{});
  if (fallback_) {
    // The fused path never reads the table or the records; free them.
    std::vector<uint32_t>().swap(next_);
    std::vector<uint32_t>().swap(emit_ref_);
    std::vector<uint32_t>().swap(twin_);
    std::vector<uint32_t>().swap(of_twin_);
    twin_charge_.ReleaseAll();
    std::vector<EmitSpan>().swap(emit_spans_);
    std::vector<int32_t>().swap(emit_pool_);
    std::vector<Record>().swap(run_rec_);
    std::vector<Record>().swap(lane_rec_);
    lane_charge_.ReleaseAll();
  } else {
    run_rec_.resize(kRunRecords);
    next_.clear();
    emit_ref_.clear();
    if (aot_ == nullptr) {
      std::vector<uint32_t>().swap(of_twin_);
      twin_charge_.ReleaseAll();
    } else if (of_twin_.size() != aot_->states.size()) {
      of_twin_.assign(aot_->states.size(), kNoDfaState);
      twin_charge_.ReleaseAll();
      twin_charge_.Add(of_twin_.size() * sizeof(uint32_t));
    } else {
      for (const uint32_t twin : twin_) {
        if (twin != kNoDfaState) of_twin_[twin] = kNoDfaState;
      }
    }
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
  if (dfa_.size() != before) AddState(id, twin);
  return id;
}

void LazyDfaSession::AddState(uint32_t id, uint32_t twin) {
  const DfaStateInfo& info = dfa_[id];
  if (twin == kNoDfaState && aot_ != nullptr) {
    twin = aot_->Find(info, dfa_.words(info));
  }
  twin_.push_back(twin);
  if (twin != kNoDfaState) of_twin_[twin] = id;
  next_.resize(next_.size() + num_classes_, kUnbuiltEdge);
  emit_ref_.resize(emit_ref_.size() + num_classes_, 0);
  const size_t charged = sizeof(DfaStateInfo) + sizeof(uint32_t) +
                         num_classes_ * 2 * sizeof(uint32_t) +
                         (info.num_state + info.num_armed) * sizeof(WordBits) +
                         DfaIndex::kBytesPerState;
  cache_bytes_ += charged;
  budget_.Add(charged);
  DfaCacheMetrics::Get().states->Increment();
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
  BuildEdge(state_, cls);
  return true;
}

bool LazyDfaSession::MayBuildInPlace() const {
  return cache_bytes_ <= tagger_->options().dfa_cache_bytes &&
         !core::resilience::FaultInjector::AnyArmed() &&
         !core::resilience::ResourceBudget::Process().ShouldShedDfa();
}

void LazyDfaSession::BuildEdge(uint32_t row, uint8_t cls) {
  const uint32_t id = IdOf(row);
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
    next_id = of_twin_[dst];
    if (next_id == kNoDfaState) {
      // Not in the table: no state has dst as its twin, and every state
      // equal to a baked one has it.
      const DfaStateInfo& dst_info = aot_->states[dst];
      next_id = dfa_.Append(dst_info,
                            aot_->snap_pool.data() + dst_info.snap_begin);
      AddState(next_id, dst);
    }
    const int32_t* tok = aot_->emit_pool.data() + baked->emit_begin;
    emit_pool_.insert(emit_pool_.end(), tok, tok + baked->emit_count);
    ++imports_;
  } else {
    dfa_.Step(id, cls, &scratch_, &emit_pool_);
    next_id = InternState(kNoDfaState);
  }
  // The edge's emissions were appended to the pool: [emit_begin, end).
  const size_t edge = size_t{row} + cls;
  const uint32_t emitted = static_cast<uint32_t>(emit_pool_.size()) - emit_begin;
  if (emitted != 0) {
    emit_ref_[edge] = static_cast<uint32_t>(emit_spans_.size());
    emit_spans_.push_back(EmitSpan{emit_begin, emitted});
    const size_t list_bytes = sizeof(EmitSpan) + emitted * sizeof(int32_t);
    cache_bytes_ += list_bytes;
    budget_.Add(list_bytes);
  }
  next_[edge] = EncodeEdge(tagger_->fused(), dfa_[id], cls,
                           static_cast<uint32_t>(next_id * num_classes_),
                           emitted != 0);
}

uint32_t LazyDfaSession::ImportTarget(uint32_t row, uint8_t cls,
                                      bool* emits) const {
  const uint32_t twin = twin_[IdOf(row)];
  if (twin == kNoDfaState) return kNoDfaState;
  const DfaTrans& baked = aot_->trans[size_t{twin} * num_classes_ + cls];
  if (baked.next < 0) return kNoDfaState;
  const uint32_t id = of_twin_[static_cast<uint32_t>(baked.next)];
  if (id == kNoDfaState) return kNoDfaState;
  *emits = baked.emit_count != 0;
  return static_cast<uint32_t>(id * num_classes_);
}

size_t LazyDfaSession::IdleRun(SkipMetrics::Kind kind, const unsigned char* p,
                               size_t n, SkipStrategy* strategy) const {
  const FusedTagger& f = tagger_->fused();
  const char* data = reinterpret_cast<const char*>(p);
  switch (kind) {
    case SkipMetrics::kDelimiter:
      // Dead + delimiter pending emits nothing and preserves arms whatever
      // the input: the run lasts while the bytes are delimiters.
      *strategy = f.delimiter_scanner().strategy();
      return f.delimiter_scanner().FindFirstNotIn(data, n);
    case SkipMetrics::kResync:
      // Mid-garbage in resync mode: start injection waits for the next
      // delimiter, so non-delimiter bytes are inert.
      *strategy = f.delimiter_scanner().strategy();
      return f.delimiter_scanner().FindFirstIn(data, n);
    case SkipMetrics::kArmed:
      // Armed-byte prefilter: fully idle in scan mode, bytes that cannot
      // start any token are inert. The run may mix garbage and delimiters
      // (delimiters never arm); the intermediate states differ only in
      // pending class and delimiter flag, neither of which scan mode's
      // injection reads, so the tags are exact.
      *strategy = f.arm_scanner().strategy();
      return f.arm_scanner().FindFirstIn(data, n);
    default:
      // Dead anchored stream: arming can never re-inject, so the rest of
      // the input is inert.
      *strategy = SkipStrategy::kNone;
      return n;
  }
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
  const SkipMetrics::Kind kind =
      IdleSkipKind(f, info, f.classifier().class_map()[*p]);
  if (kind == SkipMetrics::kNumKinds) return p;
  SkipStrategy strategy;
  const size_t j = IdleRun(kind, p, static_cast<size_t>(end - p), &strategy);
  if (j <= 1) return p;
  SkipMetrics::Get().Of(kind, strategy)->Increment(j - 1);
  return p + j - 1;
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
  feed_begin_ = reinterpret_cast<const unsigned char*>(chunk.data());
  feed_end_ = feed_begin_ + chunk.size();
  // Every byte consumes one position except the absorb out of the
  // stream-start state, which moves feed_base_ back by one.
  feed_base_ = consumed_;
  const unsigned char* p = feed_begin_;
  while (p < feed_end_ && !stopped_ && !fallback_) {
    const size_t left = static_cast<size_t>(feed_end_ - p);
    if (left < kLaneFloor) {
      p = RunSequential(p, feed_end_, sink);
    } else if (dfa_[IdOf(state_)].pending_cls < 0) {
      p = RunSequential(p, p + 1, sink);  // the stream-start absorb
    } else if (memo_empty()) {
      // Lanes 1-3 would have no guess to start from: step a floor's worth
      // sequentially to teach the memo (and stop as early as a sequential
      // feed when the sink stops).
      p = RunSegment(p, p + kLaneFloor, sink);
    } else {
      p = FeedLanes(p, left > kLaneWindow ? p + kLaneWindow : feed_end_,
                    sink);
    }
  }
  if (fallback_) {
    // The scratch session holds the exact current configuration and
    // stream position; the rest of the stream runs pure fused.
    FeedFallback(std::string_view(reinterpret_cast<const char*>(p),
                                  static_cast<size_t>(feed_end_ - p)),
                 sink);
    return;
  }
  consumed_ = Pos(p);
}

const unsigned char* LazyDfaSession::RunSequential(const unsigned char* p,
                                                   const unsigned char* stop,
                                                   const TagSink& sink) {
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  Record* const rec = run_rec_.data();
  uint32_t s = state_;
  while (p < stop) {
    // The warm loop, in runs short enough that the record buffer cannot
    // fill: fast edges may emit, but never start a skip, build, or leave
    // the stream-start state.
    const unsigned char* const run = p;
    const unsigned char* const run_end =
        static_cast<size_t>(stop - p) > kRunRecords ? p + kRunRecords : stop;
    const uint32_t* const next = next_.data();
    size_t n = 0;
    for (;;) {
      const uint32_t edge = s + class_of[*p];
      const uint32_t e = next[edge];
      if (e & kSlowEdge) break;
      rec[n] = Record{edge, static_cast<uint32_t>(p - run)};
      n += e >> 30;
      s = e & kEdgeRow;
      if (++p == run_end) break;
    }
    if (n != 0) {
      uint64_t skipped = 0, misses = 0;  // warm runs record no events
      bool halted = false;
      const size_t done =
          Replay(rec, n, Pos(run), sink, &skipped, &misses, &halted);
      if (stopped_) {
        // Stop right after the edge whose tags stopped the sink.
        const Record& last = rec[done - 1];
        s = next_[last.what] & kEdgeRow;
        p = run + last.off + 1;
        if (attr_on_) attr_dfa_hits_ += last.off + 1;
        break;
      }
    }
    if (attr_on_) attr_dfa_hits_ += static_cast<uint64_t>(p - run);
    if (p == run_end) continue;
    state_ = s;
    p = SlowStep(p, sink);
    s = state_;
    if (stopped_ || fallback_) break;
  }
  state_ = s;
  return p;
}

const unsigned char* LazyDfaSession::SlowStep(const unsigned char* p,
                                              const TagSink& sink) {
  uint32_t s = state_;
  if (IdleEligible(dfa_[IdOf(s)])) p = SkipIdle(dfa_[IdOf(s)], p, feed_end_);
  const uint8_t cls = tagger_->fused().classifier().class_map()[*p];
  if (next_[s + cls] == kUnbuiltEdge) {
    if (attr_on_) ++attr_dfa_misses_;
    consumed_ = Pos(p);
    if (!BuildTransition(cls)) return p;
    s = state_;  // a flush re-interns the current state
  } else if (attr_on_) {
    ++attr_dfa_hits_;
  }
  const uint32_t edge = s + cls;
  const uint32_t e = next_[edge];
  if (dfa_[IdOf(s)].pending_cls < 0) {
    --feed_base_;  // absorb: the byte only becomes the pending look-ahead
  } else if (e & kEmitEdge) {
    DeliverEdge(edge, Pos(p), sink);
  }
  state_ = e & kEdgeRow;
  return p + 1;
}

size_t LazyDfaSession::Replay(const Record* rec, size_t n, uint64_t at0,
                              const TagSink& sink, uint64_t* skipped,
                              uint64_t* misses, bool* halted) {
  for (size_t i = 0; i < n; ++i) {
    const Record r = rec[i];
    if ((r.what & (kEventRecord | kDeferRecord)) == 0) {
      DeliverEdge(r.what, at0 + r.off, sink);
      if (stopped_) return i + 1;
    } else if ((r.what & kEventRecord) == 0) {
      // A guessed lane's deferred build, now on the true path: build it
      // here unless an earlier step already did (then it is a hit), or
      // leave it to the sequential path when its checks could intervene.
      const uint32_t edge = r.what & kEdgeRow;
      if (next_[edge] != kUnbuiltEdge) continue;
      if (!MayBuildInPlace()) {
        *halted = true;
        return i;
      }
      const uint8_t cls = static_cast<uint8_t>(edge % num_classes_);
      BuildEdge(edge - cls, cls);
      ++*misses;
    } else if (r.off == kSkipEvent) {
      const uint32_t bytes = r.what & ((1u << 24) - 1);
      SkipMetrics::Get()
          .Of(static_cast<SkipMetrics::Kind>((r.what >> 27) & 3),
              static_cast<SkipStrategy>((r.what >> 24) & 7))
          ->Increment(bytes);
      *skipped += bytes;
    } else {
      ++*misses;
    }
  }
  return n;
}

const unsigned char* LazyDfaSession::FeedLanes(const unsigned char* begin,
                                               const unsigned char* end,
                                               const TagSink& sink) {
  if (lane_rec_.empty()) {
    lane_rec_.resize(kLanes * kLaneRecords);
    lane_charge_.Add(lane_rec_.size() * sizeof(Record));
  }
  ++lane_windows_;
  window_ = begin;
  return LaneRange(begin, end, kLanes, sink);
}

const unsigned char* LazyDfaSession::LaneRange(const unsigned char* begin,
                                               const unsigned char* end,
                                               size_t count,
                                               const TagSink& sink) {
  if (count < 2 || static_cast<size_t>(end - begin) < kLaneRangeFloor) {
    return RunSegment(begin, end, sink);
  }
  // Lane k starts at the cut CutLane picks at or past the k-th of `count`
  // equal parts; lane 0 starts at `begin` with the true state.
  Lane lanes[kLanes];
  const size_t part = static_cast<size_t>(end - begin) / count;
  lanes[0].begin = begin;
  lanes[0].entry = state_;
  for (size_t k = 1; k < count; ++k) {
    CutLane(std::max(lanes[k - 1].begin, begin + k * part), end, &lanes[k]);
  }
  for (size_t k = 0; k < count; ++k) {
    Lane& lane = lanes[k];
    lane.end = k + 1 < count ? lanes[k + 1].begin : end;
    lane.p = lane.begin;
    lane.s = lane.entry;
    lane.rec = lane_rec_.data() + k * kLaneRecords;
    lane.live = lane.begin < lane.end && (k == 0 || lane.guessed);
  }
  const uint64_t flushes = flushes_;
  RunLanes(lanes, count);

  // Merge in stream order. p and state_ are the true position and state.
  const unsigned char* p = begin;
  for (size_t k = 0; k < count && !stopped_ && !fallback_; ++k) {
    Lane& lane = lanes[k];
    if (p >= lane.end) continue;
    bool verified = k == 0;
    if (k > 0 && p == lane.begin) {
      // state_ is the true state right after the cut: check the guess and
      // teach the memo.
      if (lane.guessed && flushes_ == flushes) {
        verified = lane.entry == state_;
        if (!verified) ++lane_guess_misses_;
      }
      Learn(lane.context);
    }
    if (verified) p = ReplayLane(lane, sink);
    // The rest of a segment whose lane stopped short (a miss it could not
    // build, a full buffer) or had no right guess: lanes 0..k are
    // replayed, so their buffers lane it from the true state.
    if (p < lane.end && !stopped_) p = LaneRange(p, lane.end, k + 1, sink);
  }
  return p;
}

namespace {

// The 16 bytes ending at the cut byte `at`, hashed. Sixteen, not eight:
// on the XML-RPC stream "</methodCall>\n" leads into two states, told
// apart by the byte before the tag.
uint64_t CutContext(const unsigned char* at) {
  uint64_t w[2];
  std::memcpy(w, at - 15, sizeof(w));
  return HashMix64(w[0] * 0x9E3779B97F4A7C15ull, w[1]);
}

}  // namespace

const unsigned char* LazyDfaSession::RunSegment(const unsigned char* p,
                                                const unsigned char* end,
                                                const TagSink& sink) {
  while (p < end && !stopped_ && !fallback_) {
    const unsigned char* cut = static_cast<const unsigned char*>(
        std::memchr(p, kLaneCut, static_cast<size_t>(end - p)));
    const unsigned char* const stop = cut != nullptr ? cut + 1 : end;
    p = RunSequential(p, stop, sink);
    if (p == stop && cut != nullptr && cut - feed_begin_ >= 15) {
      Learn(CutContext(cut));
    }
  }
  return p;
}

void LazyDfaSession::Learn(uint64_t context) {
  MemoOf(context) = Memo{context, state_};
}

void LazyDfaSession::CutLane(const unsigned char* from,
                             const unsigned char* end, Lane* lane) {
  // The first cut whose context the memo knows, within kCutScan bytes; the
  // first cut otherwise (its lane then has no guess and does not run).
  const unsigned char* const scan_end =
      static_cast<size_t>(end - from) > kCutScan ? from + kCutScan : end;
  const unsigned char* at = nullptr;
  for (const unsigned char* q = from; q < scan_end; ++q) {
    q = static_cast<const unsigned char*>(
        std::memchr(q, kLaneCut, static_cast<size_t>(scan_end - q)));
    if (q == nullptr) break;
    const uint64_t context = CutContext(q);
    const Memo& memo = MemoOf(context);
    if (memo.row != kNoDfaState && memo.context == context) {
      at = q;
      break;
    }
  }
  if (at == nullptr) {
    at = static_cast<const unsigned char*>(
        std::memchr(from, kLaneCut, static_cast<size_t>(end - from)));
  }
  if (at == nullptr) {
    lane->begin = end;
    return;
  }
  lane->begin = at + 1;
  lane->context = CutContext(at);
  const Memo& memo = MemoOf(lane->context);
  lane->guessed = memo.row != kNoDfaState && memo.context == lane->context;
  lane->entry = lane->guessed ? memo.row : kNoDfaState;
}

void LazyDfaSession::RunLanes(Lane* lanes, size_t count) {
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  Lane* live[kLanes];
  for (;;) {
    size_t a = 0;
    for (size_t k = 0; k < count; ++k) {
      Lane& lane = lanes[k];
      if (!lane.live) continue;
      if (lane.p == lane.end || kLaneRecords - lane.n <= kSlowRecords) {
        lane.live = false;
        continue;
      }
      live[a++] = &lane;
    }
    switch (a) {
      case 0:
        return;
      case 1:
        StepLanes<1>(live);
        break;
      case 2:
        StepLanes<2>(live);
        break;
      case 3:
        StepLanes<3>(live);
        break;
      default:
        StepLanes<4>(live);
        break;
    }
    for (size_t i = 0; i < a; ++i) {
      Lane& lane = *live[i];
      // Slow steps come in runs on a cold table (one miss after another):
      // take a run here rather than one step per interleaved round.
      while (lane.live && lane.p < lane.end &&
             kLaneRecords - lane.n > kSlowRecords &&
             (next_[lane.s + class_of[*lane.p]] & kSlowEdge) != 0) {
        LaneSlow(lane);
      }
    }
  }
}

template <size_t A>
void LazyDfaSession::StepLanes(Lane* const* live) {
  const uint8_t* const class_of = tagger_->fused().classifier().class_map();
  const uint32_t* const next = next_.data();
  const unsigned char* p[A];
  Record* rec[A];
  size_t n[A];
  uint32_t s[A];
  uint32_t off[A];
  // Every lane has m bytes left in its segment and room for m records
  // plus one slow step.
  size_t m = ~size_t{0};
  for (size_t i = 0; i < A; ++i) {
    const Lane& lane = *live[i];
    p[i] = lane.p;
    rec[i] = lane.rec;
    n[i] = lane.n;
    s[i] = lane.s;
    off[i] = static_cast<uint32_t>(lane.p - window_);
    m = std::min(m, static_cast<size_t>(lane.end - lane.p));
    m = std::min(m, kLaneRecords - kSlowRecords - lane.n);
  }
  size_t j = 0;
  for (; j < m; ++j) {
    uint32_t edge[A];
    uint32_t e[A];
    uint32_t any = 0;
    for (size_t i = 0; i < A; ++i) {
      edge[i] = s[i] + class_of[p[i][j]];
      e[i] = next[edge[i]];
      any |= e[i];
    }
    if (any & kSlowEdge) break;
    for (size_t i = 0; i < A; ++i) {
      rec[i][n[i]] = Record{edge[i], off[i] + static_cast<uint32_t>(j)};
      n[i] += e[i] >> 30;
      s[i] = e[i] & kEdgeRow;
    }
  }
  for (size_t i = 0; i < A; ++i) {
    Lane& lane = *live[i];
    lane.p = p[i] + j;
    lane.n = n[i];
    lane.s = s[i];
  }
}

void LazyDfaSession::LaneSlow(Lane& lane) {
  const FusedTagger& f = tagger_->fused();
  const uint8_t* const class_of = f.classifier().class_map();
  const unsigned char* p = lane.p;
  const uint32_t s = lane.s;
  const DfaStateInfo& info = dfa_[IdOf(s)];
  if (info.pending_cls < 0) {
    lane.live = false;  // the absorb is the sequential path's
    return;
  }
  const SkipMetrics::Kind kind = IdleSkipKind(f, info, class_of[*p]);
  if (kind != SkipMetrics::kNumKinds) {
    const size_t left = static_cast<size_t>(lane.end - p);
    SkipStrategy strategy;
    const size_t j = IdleRun(kind, p, left, &strategy);
    if (j == left && lane.end != feed_end_) {
      // The run may go on past the segment, where a sequential feed's
      // skip would too: leave it to the sequential path.
      lane.live = false;
      return;
    }
    if (j > 1) {
      lane.rec[lane.n++] =
          Record{kEventRecord | static_cast<uint32_t>(kind) << 27 |
                     static_cast<uint32_t>(strategy) << 24 |
                     static_cast<uint32_t>(j - 1),
                 kSkipEvent};
      p += j - 1;
    }
  }
  const uint8_t cls = class_of[*p];
  const uint32_t edge = s + cls;
  const uint32_t off = static_cast<uint32_t>(p - window_);
  uint32_t e = next_[edge];
  if (e == kUnbuiltEdge) {
    if (lane.guessed) {
      // A guessed lane only reads the table (see the class comment).
      bool emits = false;
      const uint32_t row = ImportTarget(s, cls, &emits);
      if (row == kNoDfaState) {
        lane.p = p;
        lane.live = false;
        return;
      }
      lane.rec[lane.n++] = Record{kDeferRecord | edge, off};
      e = row | (emits ? kEmitEdge : 0);
    } else if (MayBuildInPlace()) {
      BuildEdge(s, cls);
      lane.rec[lane.n++] = Record{kEventRecord | edge, kMissEvent};
      e = next_[edge];
    } else {
      lane.p = p;
      lane.live = false;
      return;
    }
  }
  if (e & kEmitEdge) lane.rec[lane.n++] = Record{edge, off};
  lane.s = e & kEdgeRow;
  lane.p = p + 1;
}

const unsigned char* LazyDfaSession::ReplayLane(const Lane& lane,
                                                const TagSink& sink) {
  uint64_t skipped = 0, misses = 0;
  bool halted = false;
  const size_t done = Replay(lane.rec, lane.n, Pos(window_), sink, &skipped,
                             &misses, &halted);
  const unsigned char* p = lane.p;
  state_ = lane.s;
  if (halted) {
    // The sequential path takes the deferred edge, from its source state.
    const uint32_t edge = lane.rec[done].what & kEdgeRow;
    state_ = edge - edge % static_cast<uint32_t>(num_classes_);
    p = window_ + lane.rec[done].off;
  } else if (stopped_) {
    const Record& last = lane.rec[done - 1];
    state_ = next_[last.what] & kEdgeRow;
    p = window_ + last.off + 1;
    // A sequential feed stops here, so it never built the misses lane 0
    // built further on: unbuild them.
    for (size_t i = done; i < lane.n; ++i) {
      const Record& r = lane.rec[i];
      if ((r.what & kEventRecord) != 0 && r.off == kMissEvent) {
        next_[r.what & kEdgeRow] = kUnbuiltEdge;
      }
    }
  }
  if (attr_on_) {
    // Every byte the lane passed is a skip, a miss or a hit.
    attr_dfa_hits_ += static_cast<uint64_t>(p - lane.begin) - skipped - misses;
    attr_dfa_misses_ += misses;
  }
  return p;
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
