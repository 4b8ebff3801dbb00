#include "tagger/dfa_state.h"

#include <algorithm>

#include "common/hash.h"

namespace cfgtag::tagger {

namespace {

// Configuration hash over the canonical sparse runs. Baked AOT states
// store this value, and sessions probe them with hashes computed by this
// same function — the two must never diverge (artifact format break).
uint64_t HashDfaConfig(const WordBits* state, size_t num_state,
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

}  // namespace

void DfaIndex::Insert(uint64_t hash, uint32_t id) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<uint64_t> old(std::max<size_t>(16, 2 * slots_.size()), kEmpty);
    old.swap(slots_);
    size_ = 0;
    for (const uint64_t slot : old) {
      if (slot != kEmpty) Insert(slot, static_cast<uint32_t>(slot));
    }
  }
  const uint64_t key = hash >> 32;
  const size_t mask = slots_.size() - 1;
  size_t i = key & mask;
  while (slots_[i] != kEmpty) i = (i + 1) & mask;
  slots_[i] = key << 32 | id;
  ++size_;
}

uint32_t FindDfaState(const DfaIndex& index, const DfaStateInfo* states,
                      const WordBits* pool, const DfaStateInfo& probe,
                      const WordBits* words) {
  const size_t n = size_t{probe.num_state} + probe.num_armed;
  return index.Find(probe.hash, [&](uint32_t id) {
    const DfaStateInfo& cand = states[id];
    if (cand.pending_cls != probe.pending_cls ||
        cand.prev_delim != probe.prev_delim ||
        cand.num_state != probe.num_state ||
        cand.num_armed != probe.num_armed) {
      return false;
    }
    const WordBits* cw = pool + cand.snap_begin;
    for (size_t i = 0; i < n; ++i) {
      if (cw[i].word != words[i].word || cw[i].bits != words[i].bits) {
        return false;
      }
    }
    return true;
  });
}

void DfaStates::Start(const FusedTagger& fused) {
  cfg_words_.clear();
  cfg_.num_state = 0;
  cfg_.num_armed = 0;
  if (fused.options().arm_mode != ArmMode::kScan) {
    cfg_words_.assign(fused.start_first_.begin(), fused.start_first_.end());
    std::sort(cfg_words_.begin(), cfg_words_.end(),
              [](const WordBits& a, const WordBits& b) {
                return a.word < b.word;
              });
    cfg_.num_armed = static_cast<uint32_t>(cfg_words_.size());
  }
  cfg_.prev_delim = 0;
  cfg_.pending_cls = -1;
}

void DfaStates::Load(const DfaStateInfo& info, const WordBits* words) {
  cfg_words_.assign(words, words + info.num_state + info.num_armed);
  cfg_.num_state = info.num_state;
  cfg_.num_armed = info.num_armed;
  cfg_.prev_delim = info.prev_delim;
  cfg_.pending_cls = info.pending_cls;
}

void DfaStates::Step(uint32_t id, uint8_t cls, FusedSession* scratch,
                     std::vector<int32_t>* emit) {
  const DfaStateInfo& info = states_[id];
  if (info.pending_cls < 0) {
    Load(info, words(info));
  } else {
    const ByteClassifier& classifier = scratch->tagger()->classifier();
    scratch->attr_on_ = false;
    scratch->LoadConfig(words(info), info.num_state, info.num_armed,
                        info.prev_delim != 0);
    scratch->pos_ = 0;
    scratch->ProcessByte(
        classifier.Representative(static_cast<uint16_t>(info.pending_cls)),
        /*has_next=*/true, classifier.Representative(cls),
        [emit](const Tag& t) {
          emit->push_back(t.token);
          return true;
        });
    cfg_words_.clear();
    cfg_.num_state = static_cast<uint32_t>(scratch->SnapshotConfig(&cfg_words_));
    cfg_.num_armed = static_cast<uint32_t>(cfg_words_.size() - cfg_.num_state);
    cfg_.prev_delim = scratch->prev_was_delim_ ? 1 : 0;
  }
  cfg_.pending_cls = cls;
}

uint32_t DfaStates::Intern(size_t max_states) {
  const WordBits* w = cfg_words_.data();
  cfg_.hash = HashDfaConfig(w, cfg_.num_state, w + cfg_.num_state,
                            cfg_.num_armed, cfg_.prev_delim != 0,
                            cfg_.pending_cls);
  const uint32_t found =
      FindDfaState(index_, states_.data(), pool_.data(), cfg_, w);
  if (found != kNoDfaState || states_.size() >= max_states) return found;
  return Append(cfg_, w);
}

uint32_t DfaStates::Append(const DfaStateInfo& info, const WordBits* words) {
  DfaStateInfo copy = info;
  copy.snap_begin = static_cast<uint32_t>(pool_.size());
  pool_.insert(pool_.end(), words, words + info.num_state + info.num_armed);
  const uint32_t id = static_cast<uint32_t>(states_.size());
  states_.push_back(copy);
  index_.Insert(copy.hash, id);
  return id;
}

void DfaStates::Clear() {
  states_.clear();
  pool_.clear();
  index_.Clear();
}

}  // namespace cfgtag::tagger
