#ifndef CFGTAG_TAGGER_ARTIFACT_AOT_H_
#define CFGTAG_TAGGER_ARTIFACT_AOT_H_

#include <cstdint>
#include <vector>

#include "tagger/dfa_state.h"
#include "tagger/fused_model.h"

namespace cfgtag::tagger::artifact {

// The ahead-of-time determinized DFA in build form (vectors, not views):
// exactly the four pools AotDfaTable views at run time. State 0 is the
// stream-start configuration.
struct AotDfa {
  std::vector<DfaStateInfo> states;
  std::vector<DfaTrans> trans;  // row-major [state * num_classes + cls]
  std::vector<WordBits> snap_pool;
  std::vector<int32_t> emit_pool;
};

// Walks the reachable (machine configuration x byte class) product of the
// fused engine breadth-first, interning states and baking transitions with
// the DfaStates builder a LazyDfaSession runs on a cache miss, done once at
// serialize time. `max_states` bounds the
// interned set: transitions whose successor would exceed the budget are
// left unbuilt (next = -1) for the loading session to build. With
// max_states == 0 the result is empty (AOT disabled).
//
// The walk is deterministic, so equal (grammar, options) pairs produce
// byte-identical AOT regions — part of the artifact's cacheability.
AotDfa BuildAotDfa(const FusedTagger& fused, uint32_t max_states);

}  // namespace cfgtag::tagger::artifact

#endif  // CFGTAG_TAGGER_ARTIFACT_AOT_H_
