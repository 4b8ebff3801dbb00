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
// target's row offset and two flag bits (dfa_state.h), so a warm byte is
//
//   edge = s + class_of[*p]; e = next_[edge]; if (e & kSlowEdge) break;
//   rec[n] = {edge, p - run}; n += e >> 30; s = e & kEdgeRow;
//
// with s, p and n in registers. An emitting edge (kEmitEdge) stays on
// this path: it leaves a record in a bounded buffer, and the run's records
// are replayed in stream order through the sink when the run ends (tag end
// offsets follow from the record's offset). An edge is slow only when it
// is unbuilt, leaves the no-pending stream-start state, or can start an
// idle skip (IdleSkipKind: the delimiter / anchored-dead / resync-garbage /
// armed-byte skip paths). The slow path runs the skip, builds misses
// (below) and replays the edge's emission span (emit_ref_ runs parallel to
// next_).
//
// Four lanes. A chunk of at least kLaneFloor bytes is stepped in windows
// of up to kLaneWindow bytes, each cut into kLanes segments just after a
// kLaneCut byte (the record separator) near its quarter points, and the
// segments are stepped together in one interleaved loop, so the four
// dependent table loads per step overlap. Lane 0 starts from the true
// state; lanes 1-3 start from a guess out of the session's memo, which
// keeps, per context of a cut (the bytes just before it), the state last
// seen right after it. Each lane writes its emissions and its bookkeeping
// (skips taken, misses built) as records into its own buffer. The lanes
// are then merged in stream order: a lane's guessed entry state is checked
// against the true exit state of the segment before it, and only a
// verified lane's records are replayed. The rest of a segment whose lane
// guessed wrong, had no guess or stopped short is laned again from the
// true state on the buffers of the lanes already replayed (LaneRange), and
// every sequential run teaches the memo the state after each record byte
// it passes. Because every cut is verified, the
// tags, their order and offsets, the stop point, the skip counters and the
// hit/miss attribution equal a sequential feed of the same chunk. Only
// lane 0, which is on the true path, builds misses in place, and it stops
// at any build that could flush, shed or fall back (and whenever a fault
// is armed). A guessed lane never writes the table: at an unbuilt edge
// whose import would land on a state already in the table it steps to
// that state and leaves a deferred-build record, and the replay builds
// the edge in stream order, with the sequential path's checks (a replay
// that meets a build the checks forbid ends there, and the sequential
// path goes on from that byte). Any other miss stops a guessed lane, as
// do a full buffer and an idle skip that reaches the segment's end. So the
// table grows, flushes and counts misses exactly as under a sequential
// feed, whatever the guesses.
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

  // Lane introspection since the session was created or rebound: windows
  // stepped on lanes, and lanes whose guessed entry state proved wrong
  // (the rest of their segment was tagged again from the true state).
  uint64_t lane_windows() const { return lane_windows_; }
  uint64_t lane_guess_misses() const { return lane_guess_misses_; }

  // The lane geometry (see the class comment). A window's records must
  // fit a skip record's 24-bit byte count.
  static constexpr size_t kLanes = 4;
  static constexpr size_t kLaneFloor = size_t{16} << 10;
  static constexpr size_t kLaneWindow = size_t{64} << 10;
  static constexpr unsigned char kLaneCut = '\n';
  // Records per lane buffer and per sequential warm run: 3072 records
  // hold a 16 KiB segment at up to ~0.18 emitting edges per byte.
  static constexpr size_t kLaneRecords = 3072;
  static constexpr size_t kRunRecords = 512;
  // How far past a quarter point a cut may move to find a context the
  // memo knows.
  static constexpr size_t kCutScan = 1024;
  // The shortest rest of a segment that is laned again after its lane
  // stopped short.
  static constexpr size_t kLaneRangeFloor = size_t{2} << 10;

 private:
  // One entry of a warm run's or a lane's record buffer. what < 2^30 is an
  // emitting edge taken at byte `off` (counted from the run or window
  // start). what = kDeferRecord | x is a guessed lane's step at byte `off`
  // over the unbuilt edge x, built at replay. what = kEventRecord | x is
  // other bookkeeping, named by `off`: kMissEvent (lane 0 built the miss
  // edge x) or kSkipEvent (an idle skip, x = kind << 27 | strategy << 24 |
  // bytes). Records replay in stream order.
  struct Record {
    uint32_t what;
    uint32_t off;
  };
  static constexpr uint32_t kEventRecord = 1u << 31;
  static constexpr uint32_t kDeferRecord = 1u << 30;
  enum : uint32_t { kMissEvent, kSkipEvent };
  static_assert(kLaneWindow < (size_t{1} << 24), "skip records count bytes");
  // Records a slow step may add: a skip, a miss or deferred build, an
  // emission.
  static constexpr size_t kSlowRecords = 3;

  // One segment of a laned window: [begin, end), stepped from `entry` up
  // to p (state s) with its records in rec[0, n).
  struct Lane {
    const unsigned char* begin = nullptr;
    const unsigned char* end = nullptr;
    const unsigned char* p = nullptr;
    Record* rec = nullptr;
    size_t n = 0;
    uint32_t entry = 0;
    uint32_t s = 0;
    uint64_t context = 0;  // CutContext of the cut (lanes 1-3)
    bool guessed = false;  // entered from the memo, not the true state
    bool live = false;     // still stepping
  };

  // A memo slot: for one cut context (a hash of the 16 bytes ending in a
  // cut byte, direct-mapped into kMemoSlots slots), the row of the true
  // state last seen right after it.
  struct Memo {
    uint64_t context = 0;
    uint32_t row = kNoDfaState;
  };
  static constexpr size_t kMemoSlots = 16;

  // Id of the state whose row starts at `row`: row * ceil(2^32 / classes)
  // >> 32 is exact for rows (multiples of num_classes_ below 2^30).
  uint32_t IdOf(uint32_t row) const {
    return static_cast<uint32_t>((row * row_recip_) >> 32);
  }
  // Stream position of byte q of the chunk being fed.
  uint64_t Pos(const unsigned char* q) const {
    return feed_base_ + static_cast<uint64_t>(q - feed_begin_);
  }
  // Interns dfa_'s working configuration (see AddState).
  uint32_t InternState(uint32_t twin);
  // Gives the new state `id` an all-unbuilt row and the baked twin `twin`
  // (looked up when kNoDfaState), and charges it to the cache.
  void AddState(uint32_t id, uint32_t twin);
  // Builds the edge out of the current state on input class `cls`, by
  // import or by a fused step, flushing first if the cache is over budget
  // (which may move state_). Returns false when the session entered
  // fallback mode instead.
  bool BuildTransition(uint8_t cls);
  // Builds the edge out of the state at `row` on class `cls` (import or
  // fused step), with no budget checks.
  void BuildEdge(uint32_t row, uint8_t cls);
  // Whether a miss may be built outside BuildTransition: no flush, shed or
  // fault could intervene (see the class comment).
  bool MayBuildInPlace() const;
  // The row the unbuilt edge out of the state at `row` on class `cls`
  // would lead to if it is an import into a state already in the table
  // (*emits tells whether it emits), or kNoDfaState.
  uint32_t ImportTarget(uint32_t row, uint8_t cls, bool* emits) const;
  // The length j of the inert run of kind `kind` at p[0, n): the machine
  // may jump to p + j - 1 and take one real transition there (a skip
  // when j > 1). j == n when the run reaches the end.
  size_t IdleRun(SkipMetrics::Kind kind, const unsigned char* p, size_t n,
                 SkipStrategy* strategy) const;
  // The idle fast paths from the idle-eligible state `info` at `p`:
  // returns the byte at which the one real transition is taken.
  const unsigned char* SkipIdle(const DfaStateInfo& info,
                                const unsigned char* p,
                                const unsigned char* end) const;
  // Steps state_ from p until `stop` (idle skips may run on to the chunk
  // end), stopped_ or fallback_; returns the position reached.
  const unsigned char* RunSequential(const unsigned char* p,
                                     const unsigned char* stop,
                                     const TagSink& sink);
  // Takes the slow edge at p out of state_; returns the next byte.
  const unsigned char* SlowStep(const unsigned char* p, const TagSink& sink);
  // True until the memo has learned a cut (a fresh session, or after a
  // flush): lanes 1-3 would have no guess.
  bool memo_empty() const {
    for (const Memo& memo : memo_) {
      if (memo.row != kNoDfaState) return false;
    }
    return true;
  }
  // The memo slot of a cut context.
  Memo& MemoOf(uint64_t context) {
    return memo_[(context * 0x9E3779B97F4A7C15ull) >> 60];
  }
  // Cuts a lane just after a kLaneCut byte at or after `from`, preferring
  // (within kCutScan bytes) one whose context the memo knows, and guesses
  // its entry state from the memo. Sets the lane's begin, context and
  // guess; begin = end when the window has no cut byte left.
  void CutLane(const unsigned char* from, const unsigned char* end,
               Lane* lane);
  // Runs [p, end) sequentially, teaching the memo the true state after
  // every cut byte on the way; returns the position reached.
  const unsigned char* RunSegment(const unsigned char* p,
                                  const unsigned char* end,
                                  const TagSink& sink);
  // Teaches the memo that `context` led into state_.
  void Learn(uint64_t context);
  // Tags the window [begin, end) on lanes; returns the position reached.
  const unsigned char* FeedLanes(const unsigned char* begin,
                                 const unsigned char* end,
                                 const TagSink& sink);
  // Tags [begin, end) of the window on `count` lanes (the first `count`
  // lane buffers) from state_, or sequentially when count < 2 or the range
  // is shorter than kLaneRangeFloor; returns the position reached.
  const unsigned char* LaneRange(const unsigned char* begin,
                                 const unsigned char* end, size_t count,
                                 const TagSink& sink);
  // Steps the live lanes of lanes[0, count) until each ends its segment
  // or stops.
  void RunLanes(Lane* lanes, size_t count);
  // One interleaved run of the A lanes in `live` up to the first slow edge
  // any of them meets.
  template <size_t A>
  void StepLanes(Lane* const* live);
  // Takes the slow edge at a lane's position, or stops the lane.
  void LaneSlow(Lane& lane);
  // Replays a verified lane and moves state_ to its exit (or to just after
  // the edge that stopped the sink); returns the position reached.
  const unsigned char* ReplayLane(const Lane& lane, const TagSink& sink);
  // Replays rec[0, n), whose offsets count from stream position `at0`;
  // adds the skipped bytes and misses of event records. Returns the number
  // replayed: fewer than n when the sink stopped (rec[result - 1] holds the
  // edge that stopped it) or when a deferred build may not run here
  // (*halted is set, and rec[result] is that build's record).
  size_t Replay(const Record* rec, size_t n, uint64_t at0,
                const TagSink& sink, uint64_t* skipped, uint64_t* misses,
                bool* halted);
  // Delivers the tags of the emitting `edge` at stream position `at`.
  void DeliverEdge(uint32_t edge, uint64_t at, const TagSink& sink) {
    const EmitSpan span = emit_spans_[emit_ref_[edge]];
    const int32_t* tok = emit_pool_.data() + span.begin;
    for (uint32_t k = 0; k < span.count; ++k) Deliver(tok[k], at, sink);
  }
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
  // whose spans index emit_pool_. dfa_ holds the states the ids name,
  // twin_[id] is the baked state equal to state id (kNoDfaState if none),
  // and of_twin_ is its inverse over the baked states (sized at the baked
  // table, charged to the process budget as "dfa_twins", not to
  // dfa_cache_bytes), so an import looks up neither configuration.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> emit_ref_;
  std::vector<EmitSpan> emit_spans_;
  std::vector<int32_t> emit_pool_;
  DfaStates dfa_;
  std::vector<uint32_t> twin_;
  std::vector<uint32_t> of_twin_;
  core::resilience::ScopedCharge twin_charge_{"dfa_twins"};
  size_t cache_bytes_ = 0;
  size_t num_classes_ = 0;
  uint64_t row_recip_ = 0;  // see IdOf
  // Mirrors cache_bytes_ into the process resource budget so a fleet of
  // sessions shows up as one "dfa_cache" footprint; under budget pressure
  // the kShedDfa rung stops further growth (see BuildTransition).
  core::resilience::ScopedCharge budget_{"dfa_cache"};

  // Record buffers: one for sequential warm runs, and kLanes lane buffers
  // allocated at the first laned window and charged as "dfa_lanes".
  std::vector<Record> run_rec_;
  std::vector<Record> lane_rec_;
  core::resilience::ScopedCharge lane_charge_{"dfa_lanes"};
  // The memo lanes 1-3 start from (see Memo).
  Memo memo_[kMemoSlots];
  uint64_t lane_windows_ = 0;
  uint64_t lane_guess_misses_ = 0;

  // The chunk being fed: byte q sits at stream position Pos(q).
  const unsigned char* feed_begin_ = nullptr;
  const unsigned char* feed_end_ = nullptr;
  uint64_t feed_base_ = 0;
  // Lane record offsets count from here (the window start).
  const unsigned char* window_ = nullptr;

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
