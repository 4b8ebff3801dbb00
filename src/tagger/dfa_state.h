#ifndef CFGTAG_TAGGER_DFA_STATE_H_
#define CFGTAG_TAGGER_DFA_STATE_H_

#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "common/status.h"
#include "tagger/fused_model.h"

namespace cfgtag::tagger {

// An interned lazy-DFA configuration, shared between the runtime session
// cache (src/tagger/lazy_dfa.cc) and the ahead-of-time determinizer that
// bakes states into saved artifacts (src/tagger/artifact/). Snapshot words
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
// these rows directly: AotDfaTable::Prepare converts them at load into
// the flat edge encoding below.
struct DfaTrans {
  int32_t next = -1;
  uint32_t emit_begin = 0;
  uint32_t emit_count = 0;
};
static_assert(sizeof(DfaTrans) == 12, "DfaTrans is serialized");

// Whether the warm loop must hand control back at this state: a dead
// configuration with a pending byte, where the idle skip paths apply.
inline bool IdleEligible(const DfaStateInfo& s) {
  return s.num_state == 0 && s.pending_cls >= 0;
}

// The lazy-DFA session's flat table encoding (see LazyDfaSession): one
// uint32_t per (state, class) edge holding the target's *premultiplied*
// row offset, target_id * num_classes, so the warm loop indexes the next
// row without a multiply. The top bit marks a slow edge, one the warm
// loop may not take on its own: unbuilt, emitting, into an idle-eligible
// state, or out of the no-pending stream-start state. The all-ones value
// is an unbuilt edge, never a real one (CheckDfaTableRange keeps every row
// offset below kSlowEdge - num_classes).
constexpr uint32_t kSlowEdge = 1u << 31;
constexpr uint32_t kUnbuiltEdge = ~uint32_t{0};

inline uint32_t EncodeEdge(const DfaStateInfo& src, const DfaStateInfo& dst,
                           uint32_t dst_row, bool emits) {
  const bool slow = emits || IdleEligible(dst) || src.pending_cls < 0;
  return dst_row | (slow ? kSlowEdge : 0);
}

// Rejects a cache budget whose worst-case table could overflow the 31-bit
// row offsets. A session charges at least 8 bytes per edge (the row plus
// its emission ref) to dfa_cache_bytes and interns at most two states past
// the budget before it flushes, so its rows never exceed dfa_cache_bytes /
// 8 + 2 * num_classes edges; baked states add aot_states * num_classes.
// num_classes is at most 256 (one class per byte value), so the sum below
// cannot wrap.
inline Status CheckDfaTableRange(uint64_t dfa_cache_bytes,
                                 uint64_t aot_states, size_t num_classes) {
  const uint64_t limit = kSlowEdge - 1;
  const uint64_t c = num_classes;
  if (aot_states > limit ||
      dfa_cache_bytes / 8 + (aot_states + 2) * c > limit) {
    return InvalidArgumentError(
        "dfa_cache_bytes too large for the 31-bit lazy-DFA row encoding");
  }
  return Status::Ok();
}

// Configuration hash over the canonical sparse runs. Baked AOT states
// store this value, and the runtime probes them with hashes computed by
// this same function — the two must never diverge (artifact format break).
inline uint64_t HashDfaConfig(const WordBits* state, size_t num_state,
                              const WordBits* armed, size_t num_armed,
                              bool prev_delim, int16_t pending_cls) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  h = HashMix64(h, (static_cast<uint64_t>(num_state) << 32) ^
                       static_cast<uint64_t>(num_armed));
  for (size_t i = 0; i < num_state; ++i) {
    h = HashMix64(h, state[i].bits);
    h = HashMix64(h, state[i].word);
  }
  for (size_t i = 0; i < num_armed; ++i) {
    h = HashMix64(h, ~armed[i].bits);
    h = HashMix64(h, armed[i].word);
  }
  h = HashMix64(h, (static_cast<uint64_t>(prev_delim) << 16) ^
                       static_cast<uint64_t>(static_cast<uint16_t>(pending_cls)));
  return h;
}

inline bool SameWordRun(const WordBits* a, const WordBits* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].word != b[i].word || a[i].bits != b[i].bits) return false;
  }
  return true;
}

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_DFA_STATE_H_
