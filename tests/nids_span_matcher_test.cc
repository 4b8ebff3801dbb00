// SpanMatcher against tagger::NaiveMatcher as the oracle: the same
// (id, end) sequence, in the same order, for random pattern sets and
// inputs, under the scalar and the best vector dispatch tier.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nids/span_matcher.h"
#include "tagger/naive_matcher.h"
#include "tagger/simd/dispatch.h"

namespace cfgtag::nids {
namespace {

using Match = std::pair<uint32_t, uint64_t>;  // (id, end)

// Every dispatch tier the root-state skip can run through: scalar and the
// best one the CPU has (the same one when that is scalar).
std::vector<tagger::simd::Isa> Tiers() {
  std::vector<tagger::simd::Isa> tiers = {tagger::simd::Isa::kScalar};
  if (tagger::simd::BestAvailable() != tagger::simd::Isa::kScalar) {
    tiers.push_back(tagger::simd::BestAvailable());
  }
  return tiers;
}

class SpanMatcherTest : public ::testing::Test {
 protected:
  void TearDown() override { tagger::simd::ClearForcedIsa(); }
};

SpanMatcher Build(const std::vector<std::string>& patterns,
                  const std::vector<uint32_t>& ids) {
  const std::vector<std::string_view> views(patterns.begin(), patterns.end());
  auto m = SpanMatcher::Create(views, ids);
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).value();
}

// The oracle: NaiveMatcher reports pattern indices, mapped to their ids.
std::vector<Match> Oracle(const std::vector<std::string>& patterns,
                          const std::vector<uint32_t>& ids,
                          std::string_view input, size_t limit = SIZE_MAX) {
  std::vector<Match> out;
  tagger::NaiveMatcher(patterns).ScanWith(
      input, [&](int32_t p, uint64_t end) {
        if (out.size() == limit) return false;
        out.emplace_back(ids[p], end);
        return out.size() < limit;
      });
  return out;
}

std::vector<Match> Matches(const SpanMatcher& m, std::string_view input,
                           size_t limit = SIZE_MAX) {
  std::vector<Match> out;
  m.ScanWith(input, [&](uint32_t id, uint64_t end) {
    out.emplace_back(id, end);
    return out.size() < limit;
  });
  return out;
}

TEST_F(SpanMatcherTest, EmptyMatcherFindsNothing) {
  const SpanMatcher m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(Matches(m, "anything at all").empty());
  EXPECT_TRUE(Matches(m, "").empty());
  // A context without rules compiles to the same empty matcher.
  const SpanMatcher none = Build({}, {});
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(Matches(none, std::string(100, 'x')).empty());
}

TEST_F(SpanMatcherTest, CreateRejectsEmptyPatternAndMissingIds) {
  EXPECT_FALSE(SpanMatcher::Create({"ab", ""}, {0, 1}).ok());
  EXPECT_FALSE(SpanMatcher::Create({"ab", "cd"}, {0}).ok());
}

TEST_F(SpanMatcherTest, SharedPrefixesAndSuffixPatterns) {
  // "he" is a suffix of "she", "hers" shares "he" as a prefix: at the
  // 'e' of "she" both fire, longest first.
  const std::vector<std::string> patterns = {"he", "she", "his", "hers"};
  const std::vector<uint32_t> ids = {10, 20, 30, 40};
  const SpanMatcher m = Build(patterns, ids);
  const std::string input = "ushers said his hershe";
  for (tagger::simd::Isa isa : Tiers()) {
    tagger::simd::ForceIsa(isa);
    EXPECT_EQ(Matches(m, input), Oracle(patterns, ids, input));
  }
  const std::vector<Match> expected_prefix = {{20, 3}, {10, 3}, {40, 5}};
  EXPECT_EQ(Matches(m, input, 3), expected_prefix);
}

TEST_F(SpanMatcherTest, DuplicatePatternsFireEveryId) {
  const std::vector<std::string> patterns = {"abc", "x", "abc", "bc"};
  const std::vector<uint32_t> ids = {7, 8, 9, 3};
  const SpanMatcher m = Build(patterns, ids);
  const std::vector<Match> expected = {{7, 4}, {9, 4}, {3, 4}, {8, 5}};
  EXPECT_EQ(Matches(m, "zzabcx"), expected);
}

TEST_F(SpanMatcherTest, SingleBytesNulAndHighBytes) {
  const std::vector<std::string> patterns = {
      std::string(1, '\0'), "\xff", std::string("\x80\x00\xfe", 3), "a"};
  const std::vector<uint32_t> ids = {0, 1, 2, 3};
  const SpanMatcher m = Build(patterns, ids);
  const std::string input("a\x00\xff\x80\x00\xfe\x81\x00" "a", 9);
  for (tagger::simd::Isa isa : Tiers()) {
    tagger::simd::ForceIsa(isa);
    EXPECT_EQ(Matches(m, input), Oracle(patterns, ids, input));
  }
  EXPECT_EQ(Matches(m, input).size(), 7u);
  EXPECT_TRUE(Matches(m, "").empty());
}

TEST_F(SpanMatcherTest, RandomPatternSetsMatchOracle) {
  // A small alphabet forces shared prefixes, suffix patterns and
  // duplicates; NUL and high bytes ride along. Long filler runs of bytes
  // no pattern starts with exercise the vector root skip.
  const std::string alphabet("ab/.\x00\x80\xfe\xff", 8);
  const std::string filler = "ghjkmnpq";
  Rng rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> patterns;
    std::vector<uint32_t> ids;
    const size_t num = 1 + rng.NextIndex(12);
    for (size_t i = 0; i < num; ++i) {
      if (i > 0 && rng.NextBool(0.15)) {
        patterns.push_back(patterns[rng.NextIndex(i)]);  // a duplicate
      } else {
        patterns.push_back(rng.NextString(1 + rng.NextIndex(5), alphabet));
      }
      ids.push_back(static_cast<uint32_t>(rng.NextIndex(1000)));
    }
    const SpanMatcher m = Build(patterns, ids);
    std::string input;
    const size_t pieces = rng.NextIndex(12);
    for (size_t k = 0; k < pieces; ++k) {
      input += rng.NextString(rng.NextIndex(80), filler);
      input += rng.NextBool(0.5) ? patterns[rng.NextIndex(num)]
                                 : rng.NextString(rng.NextIndex(8), alphabet);
    }
    const std::vector<Match> want = Oracle(patterns, ids, input);
    const size_t limit = 1 + rng.NextIndex(want.size() + 1);
    for (tagger::simd::Isa isa : Tiers()) {
      tagger::simd::ForceIsa(isa);
      ASSERT_EQ(Matches(m, input), want)
          << "trial " << trial << " isa " << tagger::simd::IsaName(isa);
      ASSERT_EQ(Matches(m, input, limit), Oracle(patterns, ids, input, limit))
          << "trial " << trial << " early stop after " << limit;
    }
  }
}

TEST_F(SpanMatcherTest, EveryByteValueAsPattern) {
  // 256 single-byte patterns: 256 byte classes, no "other" class.
  std::vector<std::string> patterns;
  std::vector<uint32_t> ids;
  std::string input;
  for (int b = 255; b >= 0; --b) {
    patterns.emplace_back(1, static_cast<char>(b));
    ids.push_back(static_cast<uint32_t>(b));
    input.push_back(static_cast<char>(b));
  }
  patterns.push_back(std::string("\xff\xfe", 2));
  ids.push_back(1000);
  const SpanMatcher m = Build(patterns, ids);
  for (tagger::simd::Isa isa : Tiers()) {
    tagger::simd::ForceIsa(isa);
    EXPECT_EQ(Matches(m, input), Oracle(patterns, ids, input));
  }
  EXPECT_EQ(Matches(m, input).size(), 257u);
}

}  // namespace
}  // namespace cfgtag::nids
