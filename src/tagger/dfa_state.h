#ifndef CFGTAG_TAGGER_DFA_STATE_H_
#define CFGTAG_TAGGER_DFA_STATE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "tagger/fused_model.h"
#include "tagger/skip_scan.h"

namespace cfgtag::tagger {

// An interned lazy-DFA configuration, built by DfaStates (below) for both
// the runtime session cache (src/tagger/lazy_dfa.cc) and the ahead-of-time
// determinizer that bakes states into saved artifacts
// (src/tagger/artifact/). Snapshot words
// live in the owning pool at [snap_begin, snap_begin + num_state +
// num_armed): state words first, both runs in ascending word order with
// nonzero bits — the canonical form FusedSession::SnapshotConfig produces,
// making equality a field-wise compare.
//
// The layout is fixed-width, padding explicit, and serialized verbatim
// into artifacts; any change is an artifact format break.
struct DfaStateInfo {
  uint64_t hash = 0;
  uint32_t snap_begin = 0;
  uint32_t num_state = 0;
  uint32_t num_armed = 0;
  int16_t pending_cls = -1;  // byte class of the pending byte; -1 = none
  uint8_t prev_delim = 0;
  uint8_t pad = 0;
};
static_assert(sizeof(DfaStateInfo) == 24, "DfaStateInfo is serialized");

// A baked AOT transition as the artifact stores it: successor state plus
// the tags the step emits, as token ids into the AOT emission pool (the
// end offset is the stream position at replay time, so only the ids are
// interned). next = -1 means outside the AOT budget. Sessions never step
// these rows directly: a session's first visit to a built baked edge
// imports its target configuration and emissions into the session's own
// table (see LazyDfaSession::BuildTransition).
struct DfaTrans {
  int32_t next = -1;
  uint32_t emit_begin = 0;
  uint32_t emit_count = 0;
};
static_assert(sizeof(DfaTrans) == 12, "DfaTrans is serialized");

// A dead configuration with a pending byte: the only states out of which
// an idle skip can start.
inline bool IdleEligible(const DfaStateInfo& s) {
  return s.num_state == 0 && s.pending_cls >= 0;
}

// The idle skip an input byte of class `cls` can start out of state `src`,
// or SkipMetrics::kNumKinds when none can. Each kind is a property of the
// state and the byte's class alone, so it is fixed per edge:
//   kDelimiter  dead with a delimiter pending, on a delimiter
//   kAnchored   dead and unarmed in anchored mode, on any byte
//   kResync     dead, unarmed and mid-garbage in resync mode, on a
//               non-delimiter
//   kArmed      dead and unarmed in scan mode, on a byte that cannot arm,
//               with a pending byte that could not arm either
// An armed dead state skips only delimiter runs.
inline SkipMetrics::Kind IdleSkipKind(const FusedTagger& f,
                                      const DfaStateInfo& src, uint8_t cls) {
  if (!IdleEligible(src)) return SkipMetrics::kNumKinds;
  const uint8_t pending = static_cast<uint8_t>(src.pending_cls);
  const bool pending_delim = f.ClassIsDelim(pending);
  const bool delim = f.ClassIsDelim(cls);
  if (pending_delim && delim) return SkipMetrics::kDelimiter;
  if (src.num_armed != 0) return SkipMetrics::kNumKinds;
  switch (f.options().arm_mode) {
    case ArmMode::kAnchored:
      return SkipMetrics::kAnchored;
    case ArmMode::kResync:
      return !src.prev_delim && !pending_delim && !delim
                 ? SkipMetrics::kResync
                 : SkipMetrics::kNumKinds;
    case ArmMode::kScan:
      return !f.ClassCanArm(pending) && !f.ClassCanArm(cls)
                 ? SkipMetrics::kArmed
                 : SkipMetrics::kNumKinds;
  }
  return SkipMetrics::kNumKinds;
}

// The lazy-DFA session's flat table encoding (see LazyDfaSession): one
// uint32_t per (state, class) edge holding the target's *premultiplied*
// row offset, target_id * num_classes, so the warm loop indexes the next
// row without a multiply. Two flag bits sit above the row:
//   kSlowEdge  the warm loop may not take the edge on its own: it is
//              unbuilt, leaves the no-pending stream-start state (an
//              absorb), or can start an idle skip (IdleSkipKind).
//   kEmitEdge  the edge emits tags; the warm loop records it and goes on.
// The all-ones value is an unbuilt edge, never a real one
// (CheckDfaTableRange keeps every row offset below kEmitEdge - num_classes).
constexpr uint32_t kSlowEdge = 1u << 31;
constexpr uint32_t kEmitEdge = 1u << 30;
constexpr uint32_t kEdgeRow = kEmitEdge - 1;
constexpr uint32_t kUnbuiltEdge = ~uint32_t{0};

// The edge out of `src` on class `cls` into the state whose row starts at
// `dst_row`.
inline uint32_t EncodeEdge(const FusedTagger& f, const DfaStateInfo& src,
                           uint8_t cls, uint32_t dst_row, bool emits) {
  const bool slow = src.pending_cls < 0 ||
                    IdleSkipKind(f, src, cls) != SkipMetrics::kNumKinds;
  return dst_row | (emits ? kEmitEdge : 0) | (slow ? kSlowEdge : 0);
}

// Rejects a cache budget whose worst-case table could overflow the 30-bit
// row offsets. A session charges at least 8 bytes per edge (the row plus
// its emission ref) to dfa_cache_bytes and interns at most two states past
// the budget before it flushes, so its rows never exceed dfa_cache_bytes /
// 8 + 2 * num_classes edges. num_classes is at most 256 (one class per
// byte value), so the sum below cannot wrap.
inline Status CheckDfaTableRange(uint64_t dfa_cache_bytes,
                                 size_t num_classes) {
  const uint64_t limit = kEdgeRow;
  if (dfa_cache_bytes / 8 + 2 * uint64_t{num_classes} > limit) {
    return InvalidArgumentError(
        "dfa_cache_bytes too large for the 30-bit lazy-DFA row encoding");
  }
  return Status::Ok();
}

constexpr uint32_t kNoDfaState = std::numeric_limits<uint32_t>::max();

// Hash index over a set of interned states: configuration hash -> ids.
// Open addressing with linear probing in a power-of-two table kept at most
// half full. A slot packs the hash's high 32 bits, which also pick its
// home slot, over the id, so a probe reads one flat array and checks a
// candidate against the states only when those bits match.
class DfaIndex {
 public:
  // Upper bound on the slot bytes per indexed state: four slots right
  // after the table grows, two just before it grows again.
  static constexpr size_t kBytesPerState = 4 * sizeof(uint64_t);

  void Clear() {
    slots_.clear();
    size_ = 0;
  }

  void Insert(uint64_t hash, uint32_t id);

  // The first id filed under `hash` for which match(id) holds, or
  // kNoDfaState.
  template <typename Match>
  uint32_t Find(uint64_t hash, Match match) const {
    if (slots_.empty()) return kNoDfaState;
    const uint64_t key = hash >> 32;
    const size_t mask = slots_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == kEmpty) return kNoDfaState;
      const uint32_t id = static_cast<uint32_t>(slot);
      if (slot >> 32 == key && match(id)) return id;
    }
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

// The id of the state among `states` (snapshots in `pool`, hashed into
// `index`) equal to the configuration `probe` whose snapshot words are at
// `words`, or kNoDfaState. probe.hash must be set; probe.snap_begin is
// ignored.
uint32_t FindDfaState(const DfaIndex& index, const DfaStateInfo* states,
                      const WordBits* pool, const DfaStateInfo& probe,
                      const WordBits* words);

// The one lazy-DFA state builder. LazyDfaSession interns with it at run
// time and the AOT determinizer at serialize time, so baked and runtime
// states always agree. It owns the interned states, their snapshot pool
// and hash index, and one working configuration: Start, Load or Step set
// it, Intern maps it to a state id. Ids are dense and in interning order.
class DfaStates {
 public:
  size_t size() const { return states_.size(); }
  const DfaStateInfo& operator[](uint32_t id) const { return states_[id]; }
  // The snapshot words of `info`: its state run, then its armed run.
  const WordBits* words(const DfaStateInfo& info) const {
    return pool_.data() + info.snap_begin;
  }
  const std::vector<DfaStateInfo>& states() const { return states_; }
  const std::vector<WordBits>& pool() const { return pool_; }
  const DfaIndex& index() const { return index_; }

  // Working configuration := the stream start: no live positions, start
  // tokens armed unless in scan mode, no pending byte.
  void Start(const FusedTagger& fused);

  // Working configuration := a copy of `info`, whose snapshot words are
  // at `words` (in this set's pool or any other).
  void Load(const DfaStateInfo& info, const WordBits* words);

  // Working configuration := the successor of state `id` on byte class
  // `cls`; the tokens the step emits are appended to *emit. Out of a
  // state with no pending byte the step is an absorb: the byte becomes
  // the pending look-ahead, nothing else changes and nothing emits.
  // Otherwise it is one real fused step on the class representatives,
  // exact for every byte of the class since the engine only reads byte
  // classes. The step runs on `scratch` (a session of the same tagger)
  // with attribution off: every emission it produces is replayed, and
  // counted, later.
  void Step(uint32_t id, uint8_t cls, FusedSession* scratch,
            std::vector<int32_t>* emit);

  // The id of the state equal to the working configuration. A new state
  // is appended (its id is the old size()) unless size() is already
  // `max_states`, in which case the result is kNoDfaState.
  uint32_t Intern(size_t max_states = std::numeric_limits<size_t>::max());

  // Appends a copy of `info` (hash set, snapshot words at `words`) that the
  // caller knows is not in the set yet, without a lookup; returns its id.
  uint32_t Append(const DfaStateInfo& info, const WordBits* words);

  // Drops every interned state; the working configuration survives.
  void Clear();

 private:
  std::vector<DfaStateInfo> states_;
  std::vector<WordBits> pool_;
  DfaIndex index_;
  DfaStateInfo cfg_;  // the working configuration; snap_begin unused
  std::vector<WordBits> cfg_words_;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_DFA_STATE_H_
