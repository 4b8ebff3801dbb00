#ifndef CFGTAG_NIDS_SPAN_MATCHER_H_
#define CFGTAG_NIDS_SPAN_MATCHER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tagger/byte_classes.h"
#include "tagger/skip_scan.h"

namespace cfgtag::nids {

// Flat Aho–Corasick automaton over one rule context's patterns — the
// matcher ContextFilter runs over each context span. It has the warm DFA's
// table shape: bytes map to byte classes of the pattern bytes (every
// pattern byte its own class, all other bytes one class), each state is one
// row of premultiplied uint32_t edges, and an edge's top bit marks a target
// state with outputs, so the per-byte step is one class load, one row load
// and one flag test. Outputs are ids in one flat pool. While the automaton
// sits in the root state it skips, through RunScanner's SIMD kernels, to
// the next byte that can start a pattern.
//
// Reports exactly what tagger::NaiveMatcher over the same patterns reports,
// in the same order: every occurrence, in stream order, and at one end
// offset the longest pattern first, ties in construction order. A
// duplicate pattern reports each of its ids.
class SpanMatcher {
 public:
  // Matches nothing.
  SpanMatcher();

  // patterns[i] is reported as ids[i]; every pattern must be non-empty.
  static StatusOr<SpanMatcher> Create(
      const std::vector<std::string_view>& patterns,
      const std::vector<uint32_t>& ids);

  bool empty() const { return out_ids_.empty(); }

  // Calls `cb(id, end_offset)` for every occurrence in `input`; return
  // false from the callback to stop.
  template <typename Callback>
  void ScanWith(std::string_view input, Callback&& cb) const {
    const char* data = input.data();
    const size_t n = input.size();
    const uint32_t* rows = rows_.data();
    uint32_t row = 0;
    for (size_t i = 0; i < n; ++i) {
      if (row == 0 && !starts_.Test(static_cast<unsigned char>(data[i]))) {
        i = SkipToStart(data, i + 1, n);
        if (i == n) return;
      }
      const uint32_t edge =
          rows[row + classes_.ClassOf(static_cast<unsigned char>(data[i]))];
      row = edge & ~kOutputBit;
      if (edge & kOutputBit) {
        const uint32_t state = row / stride_;
        for (uint32_t k = out_begin_[state]; k < out_begin_[state + 1]; ++k) {
          if (!cb(out_ids_[k], static_cast<uint64_t>(i))) return;
        }
      }
    }
  }

 private:
  static constexpr uint32_t kOutputBit = 1u << 31;
  // Shortest rest of the input the root skip hands to the vector kernel;
  // a shorter rest does not pay for the call.
  static constexpr size_t kSkipFloor = 32;

  // The root-state skip: index of the first byte of data[i, n) that starts
  // a pattern, n if none does.
  size_t SkipToStart(const char* data, size_t i, size_t n) const {
    if (n - i >= kSkipFloor) return i + starts_.FindFirstIn(data + i, n - i);
    while (i < n && !starts_.Test(static_cast<unsigned char>(data[i]))) ++i;
    return i;
  }

  tagger::ByteClassifier classes_;
  // Bytes with an edge out of the root.
  tagger::RunScanner starts_;
  // Row width: one edge per byte class.
  uint32_t stride_ = 1;
  // rows_[state * stride_ + class] = target * stride_, | kOutputBit when
  // the target has outputs. State 0 is the root.
  std::vector<uint32_t> rows_;
  // Outputs of state s: out_ids_[out_begin_[s], out_begin_[s + 1]).
  std::vector<uint32_t> out_begin_;
  std::vector<uint32_t> out_ids_;
};

}  // namespace cfgtag::nids

#endif  // CFGTAG_NIDS_SPAN_MATCHER_H_
