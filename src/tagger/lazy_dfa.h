#ifndef CFGTAG_TAGGER_LAZY_DFA_H_
#define CFGTAG_TAGGER_LAZY_DFA_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/resilience/budget.h"
#include "grammar/grammar.h"
#include "obs/metrics.h"
#include "tagger/dfa_state.h"
#include "tagger/fused_model.h"
#include "tagger/session_pool.h"
#include "tagger/table_view.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

class LazyDfaTagger;
class LazyDfaSessionPool;

// The tokens one DFA edge emits: [begin, begin + count) in the owning
// emission pool. Edges refer to spans by index, so an edge costs 4 bytes
// whether or not it emits; index 0 is the empty span.
struct EmitSpan {
  uint32_t begin = 0;
  uint32_t count = 0;
};

// An ahead-of-time determinized DFA, baked into an artifact at serialize
// time: read-only views into the loaded artifact, shared by every session
// of the tagger that loaded it. Sessions never step these rows and hold no
// copy of them. A session's first visit to an edge whose source state has
// a baked twin (an equal configuration) with that edge built imports the
// target configuration and emission list into the session's own table in
// place of a fused step (see LazyDfaSession). Edges the AOT walk left
// unbuilt (outside the state budget) are built by fused steps as usual.
struct AotDfaTable {
  TableView<DfaStateInfo> states;
  TableView<DfaTrans> trans;  // row-major [state * num_classes + cls]
  TableView<WordBits> snap_pool;
  TableView<int32_t> emit_pool;
  size_t num_classes = 0;

  // hash -> baked state id, rebuilt once at load from the stored hashes
  // (cheap relative to the compile it replaces; the artifact stays pure
  // position-independent data).
  DfaIndex index;

  // Keeps the mapped (or copied) artifact bytes alive.
  std::shared_ptr<const void> backing;

  // Builds `index` from the views, already validated by the loader.
  void Prepare();

  // The baked state equal to the configuration `probe` (snapshot words at
  // `words`), its twin, or kNoDfaState.
  uint32_t Find(const DfaStateInfo& probe, const WordBits* words) const {
    return FindDfaState(index, states.data(), snap_pool.data(), probe, words);
  }
};

// Process-wide accounting for the lazy-DFA transition cache, shared by all
// sessions: states interned, RE2-style cache flushes, and sessions that
// gave up caching and fell back to pure fused execution.
struct DfaCacheMetrics {
  obs::Counter* states;
  obs::Counter* flushes;
  obs::Counter* fallbacks;

  static const DfaCacheMetrics& Get();
};

// Streaming session over a LazyDfaTagger: the fused engine memoized as a
// lazily built DFA. An interned DFA state is a full machine configuration
// — the sparse live words of the fused state bitmap, the sparse armed
// words, the delimiter flag, and the *class* of the pending look-ahead
// byte (the Fig. 7 one-byte lag; emissions and post-emission arming both
// depend on the look-ahead's class, so it must live in the state for
// transitions to be a function of (state, input class) alone). The
// alphabet is the tagger's ByteClassifier classes: every machine decision
// factors through the byte class, so stepping the fused engine on a class
// representative builds a transition that is exact for every byte of the
// class.
//
// The transitions live in one flat, session-owned table: next_[row + cls]
// for the state whose row offset is row = id * num_classes holds the
// target's row offset, so a warm byte is
//
//   e = next_[s + class_of[*p]]; if (e & kSlowEdge) break; s = e;
//
// with s and p in registers; tag end offsets follow from p. An edge is
// slow (dfa_state.h) when it is unbuilt, emits, enters an idle-eligible
// state (dead with a pending byte, where the delimiter / anchored-dead /
// resync-garbage / armed-byte skip paths run), or leaves the no-pending
// stream-start state. The slow path replays the edge's emission span
// (emit_ref_ runs parallel to next_ and only slow edges read it), runs the
// skip paths, and builds misses (below).
//
// A miss is built by a DfaStates step (an absorb or one real fused step)
// whose result is interned by the same DfaStates builder the AOT bake
// runs. Over a tagger with a baked AOT table (an artifact load), each
// state records its baked twin when it is interned, and a miss out of a
// state whose twin has the edge built is an import: the target
// configuration and emissions come from the artifact, with no fused step.
// Imported and built states are alike in every other way (and count as
// misses alike), so the table holds only the states the session visits,
// in one id region, and is charged like any other. When the cache grows
// past dfa_cache_bytes it is dropped wholesale and rebuilt from the
// current configuration (RE2's flush discipline); after
// dfa_flush_fallback flushes the session stops caching and runs its
// scratch FusedSession directly for the rest of its life (Rebind to a
// different tagger clears the verdict). Sessions of a tagger built with
// caching off run that way from the start.
//
// Tag streams are byte-identical, order included, to the functional and
// fused engines — enforced by the differential and fuzz suites.
class LazyDfaSession {
 public:
  // The tagger must outlive the session.
  explicit LazyDfaSession(const LazyDfaTagger* tagger);

  // Consumes a chunk, emitting tags in stream order.
  void Feed(std::string_view chunk, const TagSink& sink);

  // Ends the stream: processes the lagging pending byte with no look-ahead
  // suppression. Further Feed() calls are ignored until Reset().
  void Finish(const TagSink& sink);

  // Returns to the stream-start state. The transition cache (and a
  // standing fused-fallback verdict) survives — pooled sessions get warm
  // caches across scans of the same tagger.
  void Reset();

  // Re-targets the session at `tagger` and resets it. A different tagger
  // invalidates the cache and resets the fallback verdict to
  // !tagger->caches().
  void Rebind(const LazyDfaTagger* tagger);

  // Tags ending at or past `end` are not passed to the sink (attribution
  // still counts them). CompiledTagger sets it to the end of the scanned
  // range so tags inside the flush padding are dropped during replay.
  // Reset() lifts the cutoff.
  void set_emit_cutoff(uint64_t end) { emit_cutoff_ = end; }

  // Tags passed to a sink since Reset().
  uint64_t tags_delivered() const { return tags_delivered_; }

  // Bytes fully processed so far (excludes the pending look-ahead byte).
  uint64_t bytes_consumed() const { return consumed_; }

  const LazyDfaTagger* tagger() const { return tagger_; }

  // Cache introspection (tests and metrics surfacing). cache_imports()
  // counts the edges taken from the baked AOT table since the session was
  // created or rebound.
  size_t cache_states() const { return dfa_.size(); }
  size_t cache_bytes() const { return cache_bytes_; }
  uint64_t cache_flushes() const { return flushes_; }
  uint64_t cache_imports() const { return imports_; }
  bool fallback_active() const { return fallback_; }

 private:
  // Id of the state whose row starts at `row`.
  uint32_t IdOf(uint32_t row) const {
    return row / static_cast<uint32_t>(num_classes_);
  }
  // Interns dfa_'s working configuration. A new state gets an all-unbuilt
  // row and the baked twin `twin` (looked up when kNoDfaState), and is
  // charged to the cache.
  uint32_t InternState(uint32_t twin);
  // Builds the edge out of the current state on input class `cls`, by
  // import or by a fused step, flushing first if the cache is over budget
  // (which may move state_). Returns false when the session entered
  // fallback mode instead.
  bool BuildTransition(uint8_t cls);
  // The idle fast paths from the idle-eligible state `info` at `p`:
  // returns the byte at which the one real transition is taken.
  const unsigned char* SkipIdle(const DfaStateInfo& info,
                                const unsigned char* p,
                                const unsigned char* end) const;
  // Whether a tag ending at `end` reaches the sink (it lies before the
  // emission cutoff); counts it as delivered when it does.
  bool PassCutoff(uint64_t end) {
    if (end >= emit_cutoff_) return false;
    ++tags_delivered_;
    return true;
  }
  // Delivers one tag through the emission cutoff and the early-stop flag.
  void Deliver(int32_t token, uint64_t at, const TagSink& sink) {
    if (!stopped_ && PassCutoff(at)) {
      Tag tag;
      tag.token = token;
      tag.end = at;
      if (!sink(tag)) stopped_ = true;
    }
    if (attr_on_) ++attr_matches_[static_cast<size_t>(token)];
  }
  void Flush();
  void EnterFallback();
  // `sink` behind the emission cutoff and the delivered-tag count, for
  // the fused fallback path (scratch_ counts its own attribution there).
  TagSink FallbackSink(const TagSink& sink);
  // Runs the rest of a chunk on the scratch fused session.
  void FeedFallback(std::string_view chunk, const TagSink& sink);
  // Loads the current interned configuration into scratch_, restoring the
  // stream position, stop flag, and pending byte (as its class
  // representative) so the fused engine can continue the stream exactly.
  void MaterializeScratch();
  // Drops every interned state and empties the table (in fallback mode,
  // frees it).
  void ClearCache();
  void SyncFromScratch();

  // Merges the per-token match counts and DFA hit/miss tallies into
  // obs::AttributionTable::Default() and zeroes them (see the fused
  // session's equivalent). In fallback mode scratch_ counts for itself.
  void FlushAttribution();

  const LazyDfaTagger* tagger_;
  FusedSession scratch_;

  // The shared baked table, or null.
  const AotDfaTable* aot_ = nullptr;

  // The flat table (see the class comment): next_ and emit_ref_ are
  // row-major [id * num_classes_ + cls], emit_ref_ indexes emit_spans_,
  // whose spans index emit_pool_. dfa_ holds the states the ids name, and
  // twin_[id] is the baked state equal to state id (kNoDfaState if none),
  // so an import needs no configuration lookup in the baked table.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> emit_ref_;
  std::vector<EmitSpan> emit_spans_;
  std::vector<int32_t> emit_pool_;
  DfaStates dfa_;
  std::vector<uint32_t> twin_;
  size_t cache_bytes_ = 0;
  size_t num_classes_ = 0;
  // Mirrors cache_bytes_ into the process resource budget so a fleet of
  // sessions shows up as one "dfa_cache" footprint; under budget pressure
  // the kShedDfa rung stops further growth (see BuildTransition).
  core::resilience::ScopedCharge budget_{"dfa_cache"};

  uint32_t state_ = 0;  // row offset of the current state
  uint64_t consumed_ = 0;
  uint64_t flushes_ = 0;
  uint64_t imports_ = 0;
  uint64_t emit_cutoff_ = ~uint64_t{0};
  uint64_t tags_delivered_ = 0;
  bool fallback_ = false;
  bool finished_ = false;
  bool stopped_ = false;

  // Hot-path attribution (see obs::AttributionTable), sampled at Reset().
  // Matches are counted at emission replay; scratch_ never counts its own
  // build steps (they would double every replayed emission).
  bool attr_on_ = false;
  bool attr_dirty_ = false;
  std::vector<uint64_t> attr_matches_;
  uint64_t attr_dfa_hits_ = 0;
  uint64_t attr_dfa_misses_ = 0;
};

// The serving engine: owns the fused engine it memoizes and hands out
// pooled LazyDfaSessions. See LazyDfaSession for the execution model.
class LazyDfaTagger {
 public:
  // The grammar must outlive the tagger.
  static StatusOr<LazyDfaTagger> Create(const grammar::Grammar* grammar,
                                        const TaggerOptions& options);

  // Wraps an already-built fused engine. With a non-null `aot`, sessions
  // start warm out of the baked transition table (the artifact load path).
  // With `cache` false, sessions never build a transition cache and step
  // the fused engine directly from the start.
  static LazyDfaTagger Wrap(FusedTagger fused,
                            std::shared_ptr<const AotDfaTable> aot = nullptr,
                            bool cache = true);

  // Scans `input`, calling `sink` for every detected token in stream
  // order (token-id order within a byte).
  void Run(std::string_view input, const TagSink& sink) const;

  // Convenience: collect all tags.
  std::vector<Tag> TagAll(std::string_view input) const;

  // Streaming interface: feed the input in arbitrary chunks.
  LazyDfaSession NewSession() const { return LazyDfaSession(this); }

  // Shared scratch pool behind Run(); see BasicSessionPool. Thread-safe.
  LazyDfaSessionPool& session_pool() const { return *session_pool_; }

  const FusedTagger& fused() const { return fused_; }
  const grammar::Grammar& grammar() const { return fused_.grammar(); }
  const TaggerOptions& options() const { return fused_.options(); }

  // The baked AOT transition table, or null when compiled in-process.
  const AotDfaTable* aot() const { return aot_.get(); }

  // Whether sessions memoize fused steps as DFA transitions (see Wrap).
  bool caches() const { return cache_; }

  // The caching rule CompiledTagger applies to a fresh compile: cache
  // when the byte-class x state-word product is small enough that the
  // reachable configuration set plausibly fits the transition cache; wide
  // grammars step the fused engine, whose cost is already proportional to
  // live words.
  static constexpr size_t kAutoProductLimit = 8192;
  static bool AutoPrefers(const FusedTagger& fused) {
    return static_cast<size_t>(fused.NumByteClasses()) *
               fused.NumStateWords() <=
           kAutoProductLimit;
  }

 private:
  LazyDfaTagger(FusedTagger fused, std::shared_ptr<const AotDfaTable> aot,
                bool cache);

  FusedTagger fused_;
  std::shared_ptr<const AotDfaTable> aot_;
  bool cache_;
  std::shared_ptr<LazyDfaSessionPool> session_pool_;
};

// Pool of reusable LazyDfaSession scratch (see BasicSessionPool). Reused
// sessions keep their transition cache when re-acquired for the same
// tagger — repeated scans run almost entirely out of cached transitions.
class LazyDfaSessionPool final
    : public BasicSessionPool<LazyDfaTagger, LazyDfaSession> {};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_LAZY_DFA_H_
