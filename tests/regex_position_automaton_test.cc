#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "regex/nfa.h"
#include "regex/position_automaton.h"
#include "regex/regex_parser.h"

namespace cfgtag::regex {
namespace {

PositionAutomaton Build(const std::string& pattern) {
  auto re = ParseRegex(pattern);
  EXPECT_TRUE(re.ok()) << pattern;
  PositionAutomaton pa = PositionAutomaton::Build(**re);
  pa.BuildStepTables();
  return pa;
}

// Runs the position automaton over `s` with injection only at step 0 and
// returns the longest accepted prefix (mirrors Nfa::LongestPrefixMatch).
size_t PaLongestPrefix(const PositionAutomaton& pa, const std::string& s) {
  const size_t nw = pa.NumWords() == 0 ? 1 : pa.NumWords();
  std::vector<uint64_t> state(nw, 0), next(nw, 0);
  size_t best = pa.nullable ? 0 : Nfa::kNoMatch;
  for (size_t i = 0; i < s.size(); ++i) {
    pa.StepState(state.data(), /*inject=*/i == 0,
                 static_cast<unsigned char>(s[i]), next.data());
    bool dead = true;
    for (size_t w = 0; w < nw; ++w) dead &= next[w] == 0;
    if (dead) break;
    if (pa.Accepts(next.data())) best = i + 1;
    state.swap(next);
  }
  return best;
}

TEST(PositionAutomatonTest, LiteralChain) {
  PositionAutomaton pa = Build("abc");
  ASSERT_EQ(pa.NumPositions(), 3u);
  EXPECT_EQ(pa.first, (std::vector<uint32_t>{0}));
  EXPECT_TRUE(pa.is_last[2]);
  EXPECT_FALSE(pa.is_last[0]);
  EXPECT_EQ(pa.follow[0], (std::vector<uint32_t>{1}));
  EXPECT_EQ(pa.follow[1], (std::vector<uint32_t>{2}));
  EXPECT_TRUE(pa.follow[2].empty());
  EXPECT_FALSE(pa.nullable);
}

TEST(PositionAutomatonTest, PlusSelfLoop) {
  PositionAutomaton pa = Build("a+");
  ASSERT_EQ(pa.NumPositions(), 1u);
  EXPECT_EQ(pa.follow[0], (std::vector<uint32_t>{0}));
  EXPECT_TRUE(pa.is_last[0]);
  EXPECT_FALSE(pa.nullable);
  EXPECT_TRUE(Build("a*").nullable);
}

TEST(PositionAutomatonTest, AlternationFirstsAndLasts) {
  PositionAutomaton pa = Build("ab|cd");
  ASSERT_EQ(pa.NumPositions(), 4u);
  EXPECT_EQ(pa.first, (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(pa.is_last[1]);
  EXPECT_TRUE(pa.is_last[3]);
}

TEST(PositionAutomatonTest, OptionalMiddle) {
  PositionAutomaton pa = Build("ab?c");
  // 'a' is followed by both 'b' and 'c'.
  EXPECT_EQ(pa.follow[0], (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(pa.follow[1], (std::vector<uint32_t>{2}));
}

TEST(PositionAutomatonTest, StarLoopFollow) {
  PositionAutomaton pa = Build("(ab)*");
  // b loops back to a.
  EXPECT_EQ(pa.follow[1], (std::vector<uint32_t>{0}));
  EXPECT_TRUE(pa.nullable);
}

TEST(PositionAutomatonTest, PositionsCarryClasses) {
  PositionAutomaton pa = Build("[0-9][a-z]");
  EXPECT_TRUE(pa.positions[0].Test('5'));
  EXPECT_FALSE(pa.positions[0].Test('x'));
  EXPECT_TRUE(pa.positions[1].Test('x'));
}

TEST(PositionAutomatonTest, CanExtendOnlyFromAcceptingPositions) {
  PositionAutomaton pa = Build("a+b?");
  const size_t nw = 1;
  std::vector<uint64_t> state(nw, 0), next(nw, 0);
  pa.StepState(state.data(), true, 'a', next.data());
  ASSERT_TRUE(pa.Accepts(next.data()));
  // From an accepting 'a' run, both 'a' (self-loop) and 'b' extend.
  EXPECT_TRUE(pa.CanExtend(next.data(), 'a'));
  EXPECT_TRUE(pa.CanExtend(next.data(), 'b'));
  EXPECT_FALSE(pa.CanExtend(next.data(), 'c'));

  // After consuming 'b' the match cannot extend at all.
  state.swap(next);
  pa.StepState(state.data(), false, 'b', next.data());
  ASSERT_TRUE(pa.Accepts(next.data()));
  EXPECT_FALSE(pa.CanExtend(next.data(), 'a'));
  EXPECT_FALSE(pa.CanExtend(next.data(), 'b'));
}

TEST(PositionAutomatonTest, FixedLengthTokenNeverExtends) {
  PositionAutomaton pa = Build("\"<i4>\"");
  std::vector<uint64_t> state(1, 0), next(1, 0);
  const std::string s = "<i4>";
  for (size_t i = 0; i < s.size(); ++i) {
    pa.StepState(state.data(), i == 0, static_cast<unsigned char>(s[i]),
                 next.data());
    state.swap(next);
  }
  ASSERT_TRUE(pa.Accepts(state.data()));
  for (int c = 0; c < 256; ++c) {
    EXPECT_FALSE(pa.CanExtend(state.data(), static_cast<unsigned char>(c)));
  }
}

TEST(PositionAutomatonTest, InjectionMergesRuns) {
  // Two overlapping runs merge into one state set (the hardware shares one
  // register chain per token).
  PositionAutomaton pa = Build("aa");
  std::vector<uint64_t> state(1, 0), next(1, 0);
  pa.StepState(state.data(), true, 'a', next.data());  // run 1: pos0
  state.swap(next);
  pa.StepState(state.data(), true, 'a', next.data());  // run 2 starts too
  // Both pos0 (new run) and pos1 (old run) are live.
  EXPECT_EQ(next[0], 0b11u);
  EXPECT_TRUE(pa.Accepts(next.data()));
}

class PaVsNfaTest : public ::testing::TestWithParam<uint64_t> {};

// The position automaton and the Thompson NFA are two independent
// constructions of the same language: their prefix-match behaviour must
// coincide on random patterns and inputs.
TEST_P(PaVsNfaTest, LongestPrefixAgrees) {
  Rng rng(GetParam() * 7919 + 1);
  std::function<std::string(int)> gen = [&](int depth) -> std::string {
    if (depth <= 0 || rng.NextBool(0.4)) {
      static constexpr const char* kAtoms[] = {"a", "b", "[ab]", "c"};
      return kAtoms[rng.NextIndex(4)];
    }
    switch (rng.NextIndex(3)) {
      case 0:
        return gen(depth - 1) + gen(depth - 1);
      case 1:
        return "(" + gen(depth - 1) + "|" + gen(depth - 1) + ")";
      default:
        return "(" + gen(depth - 1) + ")" + (rng.NextBool() ? "+" : "?");
    }
  };
  const std::string pattern = gen(4);
  auto re = ParseRegex(pattern);
  ASSERT_TRUE(re.ok()) << pattern;
  Nfa nfa = Nfa::Build(**re);
  PositionAutomaton pa = PositionAutomaton::Build(**re);
  pa.BuildStepTables();
  EXPECT_EQ(pa.nullable, (*re)->Nullable());
  for (int i = 0; i < 40; ++i) {
    const std::string s = rng.NextString(rng.NextIndex(7), "abc");
    EXPECT_EQ(PaLongestPrefix(pa, s), nfa.LongestPrefixMatch(s, 0))
        << pattern << " on " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaVsNfaTest, ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace cfgtag::regex
