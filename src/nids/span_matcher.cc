#include "nids/span_matcher.h"

#include <deque>

#include "regex/char_class.h"

namespace cfgtag::nids {

SpanMatcher::SpanMatcher() : rows_(1, 0), out_begin_(2, 0) {}

StatusOr<SpanMatcher> SpanMatcher::Create(
    const std::vector<std::string_view>& patterns,
    const std::vector<uint32_t>& ids) {
  if (patterns.size() != ids.size()) {
    return InvalidArgumentError("span matcher: one id per pattern");
  }
  SpanMatcher m;
  regex::CharClass used, starts;
  for (std::string_view p : patterns) {
    if (p.empty()) {
      return InvalidArgumentError("span matcher: empty pattern");
    }
    starts.Set(static_cast<unsigned char>(p[0]));
    for (char ch : p) used.Set(static_cast<unsigned char>(ch));
  }
  std::vector<regex::CharClass> singles;
  for (unsigned char b : used.Members()) {
    singles.push_back(regex::CharClass::Of(b));
  }
  m.classes_ = tagger::ByteClassifier::Build(singles);
  m.starts_ = tagger::RunScanner::ForSet(starts);
  const size_t stride = m.classes_.NumClasses();

  // Trie over byte classes; -1 = no goto edge yet.
  std::vector<int32_t> go(stride, -1);
  std::vector<std::vector<uint32_t>> out(1);
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    size_t cur = 0;
    for (char ch : patterns[pi]) {
      const size_t slot =
          cur * stride + m.classes_.ClassOf(static_cast<unsigned char>(ch));
      if (go[slot] < 0) {
        go[slot] = static_cast<int32_t>(out.size());
        out.emplace_back();
        go.resize(out.size() * stride, -1);
      }
      cur = static_cast<size_t>(go[slot]);
    }
    out[cur].push_back(ids[pi]);
  }
  const size_t num_states = out.size();
  if (num_states * stride >= kOutputBit) {
    return ResourceExhaustedError(
        "span matcher: patterns need more than 2^31 table edges");
  }

  // Failure links by BFS, completing goto into a total transition function
  // and appending each state's failure outputs after its own.
  std::vector<int32_t> fail(num_states, 0);
  std::deque<int32_t> queue;
  for (size_t c = 0; c < stride; ++c) {
    if (go[c] < 0) {
      go[c] = 0;
    } else {
      queue.push_back(go[c]);
    }
  }
  while (!queue.empty()) {
    const int32_t u = queue.front();
    queue.pop_front();
    const std::vector<uint32_t>& fo = out[fail[u]];
    out[u].insert(out[u].end(), fo.begin(), fo.end());
    for (size_t c = 0; c < stride; ++c) {
      const size_t slot = static_cast<size_t>(u) * stride + c;
      const int32_t via_fail = go[static_cast<size_t>(fail[u]) * stride + c];
      if (go[slot] < 0) {
        go[slot] = via_fail;
      } else {
        fail[go[slot]] = via_fail;
        queue.push_back(go[slot]);
      }
    }
  }

  m.stride_ = static_cast<uint32_t>(stride);
  m.rows_.resize(go.size());
  for (size_t slot = 0; slot < go.size(); ++slot) {
    const uint32_t target = static_cast<uint32_t>(go[slot]);
    m.rows_[slot] = target * m.stride_ | (out[target].empty() ? 0 : kOutputBit);
  }
  m.out_begin_.assign(1, 0);
  for (const std::vector<uint32_t>& o : out) {
    m.out_ids_.insert(m.out_ids_.end(), o.begin(), o.end());
    m.out_begin_.push_back(static_cast<uint32_t>(m.out_ids_.size()));
  }
  return m;
}

}  // namespace cfgtag::nids
