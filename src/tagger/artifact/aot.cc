#include "tagger/artifact/aot.h"

namespace cfgtag::tagger::artifact {

AotDfa BuildAotDfa(const FusedTagger& fused, uint32_t max_states) {
  AotDfa out;
  if (max_states == 0) return out;
  const size_t num_classes = fused.NumByteClasses();
  DfaStates dfa;
  FusedSession scratch(&fused);
  // State 0 is the stream-start configuration LazyDfaSession::Reset
  // interns, so a fresh session's first miss finds its baked twin.
  dfa.Start(fused);
  dfa.Intern();
  // The states double as the BFS queue: ids are appended in discovery
  // order and every id's full class row is expanded once.
  for (uint32_t id = 0; id < dfa.size(); ++id) {
    out.trans.resize(out.trans.size() + num_classes);
    for (size_t cls = 0; cls < num_classes; ++cls) {
      const size_t emit_begin = out.emit_pool.size();
      dfa.Step(id, static_cast<uint8_t>(cls), &scratch, &out.emit_pool);
      const uint32_t next = dfa.Intern(max_states);
      if (next == kNoDfaState) {
        // Over budget: the loading session builds this edge itself.
        out.emit_pool.resize(emit_begin);
        continue;
      }
      DfaTrans& tr = out.trans[size_t{id} * num_classes + cls];
      tr.next = static_cast<int32_t>(next);
      tr.emit_begin = static_cast<uint32_t>(emit_begin);
      tr.emit_count = static_cast<uint32_t>(out.emit_pool.size() - emit_begin);
    }
  }
  out.states = dfa.states();
  out.snap_pool = dfa.pool();
  return out;
}

}  // namespace cfgtag::tagger::artifact
