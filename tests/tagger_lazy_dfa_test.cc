// LazyDfaTagger — the lazily built DFA memoizing the fused engine — must
// be tag-for-tag identical to the FunctionalTagger reference on every
// option combination, including streaming, early-stop sinks, the idle
// skip paths, cache flushes under a starvation-sized budget, and the
// sticky fused fallback after repeated flush thrash. The flat-table edges
// get their own sweeps: random chunk splits, an early stop inside a
// multi-token emission list, exact attribution, and the state index's
// collision handling. Sessions over a loaded artifact import baked AOT
// edges on first visit: imports mixed with fused builds, flushes that drop
// imported states and import them again, a budget charge equal to the
// session's own cache, and a session over a fully baked artifact that
// matches a freshly compiled one state for state.

#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/resilience/budget.h"
#include "grammar/grammar.h"
#include "grammar/grammar_parser.h"
#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "tagger/artifact/loader.h"
#include "tagger/artifact/writer.h"
#include "tagger/functional_model.h"
#include "tagger/fused_model.h"
#include "tagger/lazy_dfa.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<Tag> Functional(const grammar::Grammar& g,
                            const TaggerOptions& opt,
                            std::string_view input) {
  auto t = FunctionalTagger::Create(&g, opt);
  EXPECT_TRUE(t.ok()) << t.status();
  return t->TagAll(input);
}

std::vector<Tag> Lazy(const grammar::Grammar& g, const TaggerOptions& opt,
                      std::string_view input) {
  auto t = LazyDfaTagger::Create(&g, opt);
  EXPECT_TRUE(t.ok()) << t.status();
  return t->TagAll(input);
}

void ExpectSameTags(const std::vector<Tag>& a, const std::vector<Tag>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token) << "tag " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "tag " << i;
  }
}

const char kCalcGrammar[] =
    "NUM [0-9]+\nWORD [a-z]+\nOP [-+*/]\n%%\ns: NUM OP NUM | WORD;\n%%\n";

TEST(LazyDfaTaggerTest, MatchesFunctionalAllArmModes) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  for (ArmMode mode : {ArmMode::kAnchored, ArmMode::kScan, ArmMode::kResync}) {
    for (bool longest : {true, false}) {
      TaggerOptions opt;
      opt.arm_mode = mode;
      opt.longest_match = longest;
      for (std::string_view input :
           {"12+34", "12 + 34", "hello", "12x", "", "   ", "??12+34??",
            "a1b2c3", "garbage 12+34 more", "###\n42/7\n###",
            "9*8 trailing", "12+34 56-78"}) {
        ExpectSameTags(Functional(g, opt, input), Lazy(g, opt, input));
      }
    }
  }
}

TEST(LazyDfaTaggerTest, ChunkedFeedMatchesWholeBuffer) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 ";
  const std::vector<Tag> whole = t->TagAll(input);
  for (size_t chunk : {1u, 2u, 3u, 5u, 7u, 11u}) {
    std::vector<Tag> streamed;
    LazyDfaSession session = t->NewSession();
    const TagSink sink = [&](const Tag& tag) {
      streamed.push_back(tag);
      return true;
    };
    for (size_t i = 0; i < input.size(); i += chunk) {
      session.Feed(std::string_view(input).substr(i, chunk), sink);
    }
    session.Finish(sink);
    ExpectSameTags(whole, streamed);
    EXPECT_EQ(session.bytes_consumed(), input.size());
  }
}

TEST(LazyDfaTaggerTest, EarlyStopMatchesFunctional) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kScan;
  const std::string input = "12+34 abc 9*9 def";
  for (size_t limit = 1; limit <= 4; ++limit) {
    auto collect = [&](auto& tagger) {
      std::vector<Tag> tags;
      tagger.Run(input, [&](const Tag& tag) {
        tags.push_back(tag);
        return tags.size() < limit;
      });
      return tags;
    };
    auto functional = FunctionalTagger::Create(&g, opt);
    auto lazy = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(functional.ok() && lazy.ok());
    ExpectSameTags(collect(*functional), collect(*lazy));
  }
}

TEST(LazyDfaTaggerTest, SkipPathsStayExact) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  // Delimiter-run skip (resync): mostly-space stream with islands.
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kResync;
    std::string input(10000, ' ');
    input.replace(5000, 5, "12+34");
    input.replace(9990, 3, "abc");
    ExpectSameTags(Functional(g, opt, input), Lazy(g, opt, input));
  }
  // Anchored-dead skip: nothing can match after the stream dies.
  {
    TaggerOptions opt;  // anchored
    std::string input = "12+34 ";
    input += std::string(5000, 'z');
    input += " 9*9";
    ExpectSameTags(Functional(g, opt, input), Lazy(g, opt, input));
  }
  // Resync garbage skip: a dead non-delimiter run is inert until the next
  // delimiter rearms the machine.
  {
    TaggerOptions opt;
    opt.arm_mode = ArmMode::kResync;
    std::string input(8000, '?');
    input += " 12+34";
    const auto want = Functional(g, opt, input);
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok());
    std::vector<Tag> got;
    LazyDfaSession session = t->NewSession();
    const TagSink sink = [&](const Tag& tag) {
      got.push_back(tag);
      return true;
    };
    session.Feed(input, sink);
    session.Finish(sink);
    ExpectSameTags(want, got);
    // The skip paths must keep the byte ledger exact, not just the tags.
    EXPECT_EQ(session.bytes_consumed(), input.size());
  }
}

TEST(LazyDfaTaggerTest, TinyCacheFlushesButStaysExact) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  // Budget below the cost of even a few interned states: every stretch of
  // input churns the cache through Flush().
  opt.dfa_cache_bytes = 1 << 9;
  opt.dfa_flush_fallback = 1u << 30;  // never give up caching
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";
  const auto want = Functional(g, opt, input);
  std::vector<Tag> got;
  LazyDfaSession session = t->NewSession();
  const TagSink sink = [&](const Tag& tag) {
    got.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_GT(session.cache_flushes(), 0u);
  EXPECT_FALSE(session.fallback_active());
  EXPECT_LE(session.cache_bytes(), opt.dfa_cache_bytes * 2);
}

TEST(LazyDfaTaggerTest, FlushThrashFallsBackToFused) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  opt.dfa_cache_bytes = 1 << 9;
  opt.dfa_flush_fallback = 2;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";
  const auto want = Functional(g, opt, input);
  std::vector<Tag> got;
  LazyDfaSession session = t->NewSession();
  const TagSink sink = [&](const Tag& tag) {
    got.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_TRUE(session.fallback_active());
  EXPECT_GE(session.cache_flushes(), 2u);
  // The verdict is sticky across Reset(): the session stays fused.
  session.Reset();
  EXPECT_TRUE(session.fallback_active());
  got.clear();
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  // Rebinding to a different tagger clears the verdict with the cache.
  auto t2 = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t2.ok());
  session.Rebind(&*t2);
  EXPECT_FALSE(session.fallback_active());
  EXPECT_EQ(session.cache_flushes(), 0u);
}

TEST(LazyDfaTaggerTest, ResetKeepsWarmCache) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 ";
  const auto want = Functional(g, opt, input);
  LazyDfaSession session = t->NewSession();
  std::vector<Tag> got;
  const TagSink sink = [&](const Tag& tag) {
    got.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  const size_t warm_states = session.cache_states();
  EXPECT_GT(warm_states, 0u);
  // A second pass over the same stream runs out of cached transitions:
  // identical output and not a single new state interned.
  session.Reset();
  got.clear();
  session.Feed(input, sink);
  session.Finish(sink);
  ExpectSameTags(want, got);
  EXPECT_EQ(session.cache_states(), warm_states);
}

TEST(LazyDfaTaggerTest, SessionPoolReusesSessions) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  (void)t->TagAll("12+34");
  (void)t->TagAll("56-7");
  EXPECT_EQ(t->session_pool().IdleCount(), 1u);
  EXPECT_GE(t->session_pool().sessions_reused(), 1u);
  // Pool survives a tagger move (shared_ptr semantics).
  LazyDfaTagger moved = std::move(t).value();
  ASSERT_EQ(moved.TagAll("1+1").size(), 3u);  // NUM OP NUM
}

TEST(LazyDfaTaggerTest, AutoHeuristicPrefersLazyForSmallGrammars) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  auto fused = FusedTagger::Create(&g, {});
  ASSERT_TRUE(fused.ok());
  // A handful of byte classes over a few state words is far under the
  // product limit — exactly the shape CompiledTagger serves with a
  // caching engine.
  EXPECT_TRUE(LazyDfaTagger::AutoPrefers(*fused));
  EXPECT_LE(static_cast<size_t>(fused->NumByteClasses()) *
                fused->NumStateWords(),
            LazyDfaTagger::kAutoProductLimit);
}

TEST(LazyDfaTaggerTest, CacheMetricsAreRegistered) {
  const DfaCacheMetrics& m = DfaCacheMetrics::Get();
  ASSERT_NE(m.states, nullptr);
  ASSERT_NE(m.flushes, nullptr);
  ASSERT_NE(m.fallbacks, nullptr);
  const uint64_t states_before = m.states->Value();
  grammar::Grammar g = MustParse(kCalcGrammar);
  auto t = LazyDfaTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  (void)t->TagAll("12+34 77*1");
  EXPECT_GT(m.states->Value(), states_before);
}

// Under cache pressure every registry-side cache counter must move: a
// starvation-sized budget forces flushes, and a tiny flush-fallback bound
// forces the fused fallback — both visible at /metrics, not just through
// the session accessors.
TEST(LazyDfaTaggerTest, CachePressureMovesRegistryCounters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* states = reg.GetCounter("cfgtag_dfa_cache_states");
  obs::Counter* flushes = reg.GetCounter("cfgtag_dfa_cache_flushes");
  obs::Counter* fallbacks = reg.GetCounter("cfgtag_dfa_cache_fallbacks");
  const uint64_t states_before = states->Value();
  const uint64_t flushes_before = flushes->Value();
  const uint64_t fallbacks_before = fallbacks->Value();

  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  opt.dfa_cache_bytes = 1 << 9;
  opt.dfa_flush_fallback = 2;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";
  const auto want = Functional(g, opt, input);
  const auto got = t->TagAll(input);
  ExpectSameTags(want, got);

  EXPECT_GT(states->Value(), states_before);
  EXPECT_GT(flushes->Value(), flushes_before);
  EXPECT_GT(fallbacks->Value(), fallbacks_before);
}

// Flushes and fallbacks also land in the flight recorder, so a crash dump
// shows whether the cache was thrashing in the run-up.
TEST(LazyDfaTaggerTest, CachePressureRecordsFlightEvents) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  const uint64_t recorded_before = rec.total_recorded();

  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  opt.dfa_cache_bytes = 1 << 9;
  opt.dfa_flush_fallback = 2;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  (void)t->TagAll("  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ");

  ASSERT_GT(rec.total_recorded(), recorded_before);
  bool saw_flush = false;
  bool saw_fallback = false;
  for (const obs::Event& e : rec.Snapshot()) {
    if (e.seq <= recorded_before) continue;
    if (e.kind == obs::EventKind::kDfaCacheFlush) saw_flush = true;
    if (e.kind == obs::EventKind::kDfaCacheFallback) saw_fallback = true;
  }
  EXPECT_TRUE(saw_flush);
  EXPECT_TRUE(saw_fallback);
}

// --- Flat-table edges ------------------------------------------------------

// Two tokens over the same letters emit together at one byte: the
// multi-token emission lists an early stop can cut in the middle.
const char kTwinGrammar[] =
    "A [a-z]+\nB [a-z]+\nN [0-9]+\nOP [-+*/]\n%%\n"
    "s: t s | t;\nt: A | B | N OP N;\n%%\n";

constexpr ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                              ArmMode::kResync};

std::string RandomInput(Rng& rng, size_t max_len) {
  static const char kAlphabet[] = "abcxyz0129+-*/  \n\t?#.";
  std::string s(rng.NextBelow(max_len + 1), ' ');
  for (char& c : s) c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  return s;
}

// Feeds `input` in random 1-64 byte chunks and returns the tags; the
// session's byte ledger must end at the input size.
std::vector<Tag> FeedRandomChunks(LazyDfaSession& session,
                                  std::string_view input, Rng& rng) {
  std::vector<Tag> tags;
  const TagSink sink = [&](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  for (size_t i = 0; i < input.size();) {
    const size_t n = 1 + rng.NextBelow(64);
    session.Feed(input.substr(i, n), sink);
    i += n;
  }
  session.Finish(sink);
  EXPECT_EQ(session.bytes_consumed(), input.size());
  return tags;
}

TEST(LazyDfaFlatTableTest, RandomChunkSplitsMatchFunctional) {
  Rng rng(0x5eed13);
  for (const char* text : {kCalcGrammar, kTwinGrammar}) {
    grammar::Grammar g = MustParse(text);
    for (ArmMode mode : kModes) {
      for (bool longest : {true, false}) {
        TaggerOptions opt;
        opt.arm_mode = mode;
        opt.longest_match = longest;
        auto t = LazyDfaTagger::Create(&g, opt);
        ASSERT_TRUE(t.ok()) << t.status();
        // One session across inputs: later inputs run on a warm table.
        LazyDfaSession session = t->NewSession();
        for (int iter = 0; iter < 40; ++iter) {
          const std::string input = RandomInput(rng, 300);
          session.Reset();
          ExpectSameTags(Functional(g, opt, input),
                         FeedRandomChunks(session, input, rng));
        }
      }
    }
  }
}

// A sink that stops after `limit` tags, fed as two chunks split at `cut`:
// the tags and the byte ledger must match the functional session exactly,
// including when the stop lands inside one byte's emission list.
template <typename Session>
std::pair<std::vector<Tag>, uint64_t> StopRun(Session session,
                                              std::string_view input,
                                              size_t cut, size_t limit) {
  std::vector<Tag> tags;
  const TagSink sink = [&](const Tag& tag) {
    tags.push_back(tag);
    return tags.size() < limit;
  };
  session.Feed(input.substr(0, cut), sink);
  session.Feed(input.substr(cut), sink);
  session.Finish(sink);
  return {tags, session.bytes_consumed()};
}

TEST(LazyDfaFlatTableTest, EarlyStopInsideEmissionListAtChunkBoundary) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  const std::string input = "abc de 12+3 fgh";
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    auto functional = FunctionalTagger::Create(&g, opt);
    auto lazy = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(functional.ok() && lazy.ok());
    const std::vector<Tag> all = functional->TagAll(input);
    // "abc" ends at byte 2 as both A and B: the list is emitted on the
    // look-ahead byte 3, so cut = 3 starts a chunk with it.
    ASSERT_GE(all.size(), 2u);
    EXPECT_EQ(all[0].end, all[1].end);
    for (size_t cut = 1; cut < input.size(); ++cut) {
      for (size_t limit = 1; limit <= all.size(); ++limit) {
        const auto want =
            StopRun(functional->NewSession(), input, cut, limit);
        const auto got = StopRun(lazy->NewSession(), input, cut, limit);
        ExpectSameTags(want.first, got.first);
        EXPECT_EQ(want.second, got.second)
            << "cut " << cut << " limit " << limit;
      }
    }
  }
}

// A lazy artifact baked with `aot_budget` states, loaded back.
artifact::LoadedTagger LoadWithAot(const grammar::Grammar& g,
                                   const TaggerOptions& opt,
                                   uint32_t aot_budget) {
  auto fused = FusedTagger::Create(&g, opt);
  EXPECT_TRUE(fused.ok()) << fused.status();
  artifact::SerializeRequest req;
  req.backend = artifact::kArtifactLazyDfa;
  req.aot_state_budget = aot_budget;
  auto bytes = artifact::SerializeTagger(*fused, req);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = artifact::LoadFromMemory(*bytes);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(loaded).value();
}

// The state index keys slots by the hash's high 32 bits: ids filed under
// hashes that share them (or the whole hash) are told apart only by the
// caller's match, and every id survives the table's growth.
TEST(DfaIndexTest, FindsEveryIdThroughCollisionsAndGrowth) {
  DfaIndex index;
  EXPECT_EQ(index.Find(7, [](uint32_t) { return true; }), kNoDfaState);
  constexpr uint32_t kIds = 1000;
  auto hash_of = [](uint32_t id) {
    // Ten ids per high half, two per full hash.
    return (uint64_t{id / 10} << 32) | (id / 2);
  };
  for (uint32_t id = 0; id < kIds; ++id) index.Insert(hash_of(id), id);
  for (uint32_t id = 0; id < kIds; ++id) {
    EXPECT_EQ(index.Find(hash_of(id), [id](uint32_t c) { return c == id; }),
              id);
  }
  EXPECT_EQ(index.Find(uint64_t{kIds} << 32, [](uint32_t) { return true; }),
            kNoDfaState);
  index.Clear();
  EXPECT_EQ(index.Find(hash_of(3), [](uint32_t) { return true; }),
            kNoDfaState);
}

// An AOT budget large enough for every test grammar's walk to close.
constexpr uint32_t kFullClosure = 1u << 16;

// Built edges in the baked table: each one a session can import.
size_t BakedEdges(const AotDfaTable& aot) {
  size_t n = 0;
  for (const DfaTrans& tr : aot.trans) n += tr.next >= 0 ? 1 : 0;
  return n;
}

// Four baked states cover a sliver of the reachable set: sessions import
// what they can and step the fused engine for the rest, in one table.
TEST(LazyDfaFlatTableTest, ImportsMixWithBuildsAtSmallAotBudget) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  Rng rng(0xa07);
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    artifact::LoadedTagger loaded = LoadWithAot(g, opt, 4);
    ASSERT_NE(loaded.engine->aot(), nullptr);
    ASSERT_EQ(loaded.engine->aot()->states.size(), 4u);
    LazyDfaSession session = loaded.engine->NewSession();
    for (int iter = 0; iter < 40; ++iter) {
      const std::string input = RandomInput(rng, 300);
      session.Reset();
      ExpectSameTags(Functional(g, opt, input),
                     FeedRandomChunks(session, input, rng));
    }
    EXPECT_GT(session.cache_imports(), 0u);
    // More states than were baked: the rest came from fused steps.
    EXPECT_GT(session.cache_states(), 4u);
    EXPECT_FALSE(session.fallback_active());
  }
}

// A starvation budget flushes every few builds. Each flush drops the
// imported states with the rest; revisiting them imports them again, so a
// session imports more edges than the artifact bakes.
TEST(LazyDfaFlatTableTest, FlushDropsImportedStatesThenReimports) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  Rng rng(0xf105);
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    opt.dfa_cache_bytes = 1 << 9;
    opt.dfa_flush_fallback = 1u << 30;  // never give up caching
    artifact::LoadedTagger loaded = LoadWithAot(g, opt, kFullClosure);
    const AotDfaTable* aot = loaded.engine->aot();
    ASSERT_NE(aot, nullptr);
    ASSERT_LT(aot->states.size(), kFullClosure);
    LazyDfaSession session = loaded.engine->NewSession();
    for (int iter = 0; iter < 40; ++iter) {
      const std::string input = RandomInput(rng, 300);
      session.Reset();
      ExpectSameTags(Functional(g, opt, input),
                     FeedRandomChunks(session, input, rng));
    }
    EXPECT_GT(session.cache_flushes(), 0u);
    EXPECT_GT(session.cache_imports(), BakedEdges(*aot));
    EXPECT_FALSE(session.fallback_active());
  }
}

// The baked table is shared, read-only artifact memory: a session charges
// the process resource budget for its own cache and one id per baked
// state only, through flushes, and releases both with the session.
TEST(LazyDfaFlatTableTest, SessionChargeIsItsCacheBytes) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  core::resilience::ResourceBudget& budget =
      core::resilience::ResourceBudget::Process();
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kScan;
  opt.dfa_cache_bytes = 1 << 9;
  opt.dfa_flush_fallback = 1u << 30;
  artifact::LoadedTagger loaded = LoadWithAot(g, opt, 32);
  ASSERT_NE(loaded.engine->aot(), nullptr);
  // Besides its cache, a session holds one id per baked state (the map
  // from baked states to its own).
  const uint64_t twins = loaded.engine->aot()->states.size() * sizeof(uint32_t);
  const uint64_t before = budget.used();
  {
    LazyDfaSession session = loaded.engine->NewSession();
    EXPECT_EQ(session.cache_states(), 1u);  // the stream-start state
    EXPECT_EQ(budget.used() - before, session.cache_bytes() + twins);
    Rng rng(0xb0d6e7);
    for (int iter = 0; iter < 20; ++iter) {
      const std::string input = RandomInput(rng, 300);
      session.Reset();
      ExpectSameTags(Functional(g, opt, input),
                     FeedRandomChunks(session, input, rng));
    }
    EXPECT_GT(session.cache_flushes(), 0u);
    EXPECT_GT(session.cache_imports(), 0u);
    EXPECT_EQ(budget.used() - before, session.cache_bytes() + twins);
  }
  EXPECT_EQ(budget.used(), before);
}

// Importing a baked edge yields exactly the state a fused step would
// build, so a session over a fully baked artifact holds the same table as
// one over the freshly compiled tagger: same states, same bytes, same
// tags, with every miss served by an import.
TEST(LazyDfaFlatTableTest, FullyBakedSessionMatchesCompiledSession) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  Rng rng(0xc0de);
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    artifact::LoadedTagger loaded = LoadWithAot(g, opt, kFullClosure);
    ASSERT_NE(loaded.engine->aot(), nullptr);
    auto compiled = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    LazyDfaSession baked = loaded.engine->NewSession();
    LazyDfaSession fresh = compiled->NewSession();
    for (int iter = 0; iter < 20; ++iter) {
      const std::string input = RandomInput(rng, 300);
      baked.Reset();
      fresh.Reset();
      const std::vector<Tag> want = Functional(g, opt, input);
      // Equal chunk splits: the idle skips stop at chunk ends, so the
      // states a session visits depend on where its chunks end.
      const uint64_t split_seed = rng.Next();
      Rng baked_split(split_seed), fresh_split(split_seed);
      ExpectSameTags(want, FeedRandomChunks(baked, input, baked_split));
      ExpectSameTags(want, FeedRandomChunks(fresh, input, fresh_split));
      EXPECT_EQ(baked.cache_states(), fresh.cache_states()) << "iter " << iter;
      EXPECT_EQ(baked.cache_bytes(), fresh.cache_bytes()) << "iter " << iter;
    }
    // Every state but the stream-start one entered through an import.
    EXPECT_GE(baked.cache_imports(), baked.cache_states() - 1);
    EXPECT_EQ(fresh.cache_imports(), 0u);
  }
}

// Attribution must count exactly what the pre-flat-table session counted:
// one DFA hit or miss per stepped byte (skipped bytes count neither) and
// every replayed emission per token. The hit/miss pairs are the values
// the region-walking session produced for this input, cold then warm.
struct AttributionWant {
  ArmMode mode;
  uint64_t cold_hits, cold_misses, warm_hits;
};
constexpr AttributionWant kAttributionWant[] = {
    {ArmMode::kAnchored, 0, 11, 11},
    {ArmMode::kScan, 24, 20, 44},
    {ArmMode::kResync, 23, 21, 44},
};
const char kAttributionInput[] =
    "  12+34 junk 99*1   abc 5-5 12 34 xyzzy 7/8 ";

// Tags kAttributionInput twice (cold, then warm) on one session of `t`
// with attribution on and checks the table against `w` and `g`.
void ExpectAttribution(const grammar::Grammar& g, const LazyDfaTagger& t,
                       const AttributionWant& w) {
  obs::AttributionTable& table = obs::AttributionTable::Default();
  const std::string input = kAttributionInput;
  const std::vector<Tag> want = Functional(g, t.options(), input);
  std::map<std::string, uint64_t> want_matches;
  for (const Tag& tag : want) {
    ++want_matches[g.tokens()[static_cast<size_t>(tag.token)].name];
  }
  LazyDfaSession session = t.NewSession();
  for (int pass = 0; pass < 2; ++pass) {
    table.Clear();
    session.Reset();  // samples the switch
    std::vector<Tag> got;
    const TagSink sink = [&](const Tag& tag) {
      got.push_back(tag);
      return true;
    };
    session.Feed(input, sink);
    session.Finish(sink);  // merges into the table
    ExpectSameTags(want, got);
    EXPECT_EQ(table.dfa_cache_hits(), pass == 0 ? w.cold_hits : w.warm_hits)
        << "pass " << pass;
    EXPECT_EQ(table.dfa_cache_misses(), pass == 0 ? w.cold_misses : 0u)
        << "pass " << pass;
    std::map<std::string, uint64_t> got_matches;
    for (const obs::AttributionTable::Row& row : table.RankedTokens()) {
      got_matches[row.name] = row.hits;
    }
    EXPECT_EQ(got_matches, want_matches) << "pass " << pass;
  }
}

TEST(LazyDfaFlatTableTest, AttributionCountsAreUnchanged) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  const bool was_enabled = obs::AttributionTable::enabled();
  obs::AttributionTable::set_enabled(true);
  for (const AttributionWant& w : kAttributionWant) {
    TaggerOptions opt;
    opt.arm_mode = w.mode;
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectAttribution(g, *t, w);
  }
  obs::AttributionTable::Default().Clear();
  obs::AttributionTable::set_enabled(was_enabled);
}

// An import is a miss: the edge was not in the session's table, whether
// the artifact or a fused step supplies it. A session over a fully baked
// artifact therefore counts what a freshly compiled one counts.
TEST(LazyDfaFlatTableTest, AttributionCountsImportsAsMisses) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  const bool was_enabled = obs::AttributionTable::enabled();
  obs::AttributionTable::set_enabled(true);
  for (const AttributionWant& w : kAttributionWant) {
    TaggerOptions opt;
    opt.arm_mode = w.mode;
    artifact::LoadedTagger loaded = LoadWithAot(g, opt, kFullClosure);
    ASSERT_NE(loaded.engine->aot(), nullptr);
    ExpectAttribution(g, *loaded.engine, w);
  }
  obs::AttributionTable::Default().Clear();
  obs::AttributionTable::set_enabled(was_enabled);
}

// dfa_cache_bytes bounds the session's state count; a budget whose worst
// case overflows the 30-bit premultiplied row offsets is rejected up
// front instead of running the process out of memory first.
TEST(LazyDfaFlatTableTest, RejectsCacheBudgetBeyondRowEncoding) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  for (size_t bytes : {~size_t{0}, size_t{1} << 34, size_t{1} << 33}) {
    TaggerOptions opt;
    opt.dfa_cache_bytes = bytes;
    auto fused = FusedTagger::Create(&g, opt);
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(LazyDfaTagger::Create(&g, opt).ok());
  }
  TaggerOptions opt;
  opt.dfa_cache_bytes = size_t{1} << 32;  // 4 GiB: still representable
  EXPECT_TRUE(FusedTagger::Create(&g, opt).ok());
}


// --- Lanes ------------------------------------------------------------------

constexpr size_t kLaneFloor = LazyDfaSession::kLaneFloor;
constexpr size_t kLaneWindow = LazyDfaSession::kLaneWindow;

// Random narrow grammar: a few short literals over a small alphabet, maybe
// a number token, wired into right-linear productions.
grammar::Grammar RandomNarrowGrammar(Rng& rng) {
  grammar::Grammar g;
  std::vector<int32_t> tokens;
  for (int i = 0, n = 2 + static_cast<int>(rng.NextIndex(3)); i < n; ++i) {
    std::string text(1, static_cast<char>('a' + i));
    text += rng.NextString(1 + rng.NextIndex(3), "xyz");
    auto t = g.AddLiteralToken(text);
    if (t.ok()) tokens.push_back(*t);
  }
  if (rng.NextBool(0.6)) {
    auto t = g.AddToken("NUM", "[0-9]+");
    if (t.ok()) tokens.push_back(*t);
  }
  std::vector<int32_t> nts;
  for (int i = 0, n = 2 + static_cast<int>(rng.NextIndex(2)); i < n; ++i) {
    nts.push_back(g.AddNonterminal("n" + std::to_string(i)));
  }
  for (size_t i = 0; i < nts.size(); ++i) {
    for (int a = 0, alts = 1 + static_cast<int>(rng.NextIndex(2)); a < alts;
         ++a) {
      std::vector<grammar::Symbol> rhs;
      rhs.push_back(
          grammar::Symbol::Terminal(tokens[rng.NextIndex(tokens.size())]));
      for (int e = 0, extra = static_cast<int>(rng.NextIndex(3)); e < extra;
           ++e) {
        if (rng.NextBool(0.35) && i + 1 < nts.size()) {
          rhs.push_back(grammar::Symbol::Nonterminal(
              nts[i + 1 + rng.NextIndex(nts.size() - i - 1)]));
        } else {
          rhs.push_back(grammar::Symbol::Terminal(
              tokens[rng.NextIndex(tokens.size())]));
        }
      }
      g.AddProduction(nts[i], std::move(rhs));
    }
  }
  g.SetStart(nts[0]);
  return g;
}

// A newline-framed stream of at least `bytes` bytes: records of token
// spellings (`words`) joined by short space runs, now and then garbage.
// Every record starts and ends with a non-delimiter byte.
std::string RecordStream(const std::vector<std::string>& words, Rng& rng,
                         size_t bytes) {
  std::string out;
  while (out.size() < bytes) {
    for (size_t w = 0, n = 1 + rng.NextIndex(6); w < n; ++w) {
      if (w > 0) out.append(1 + rng.NextIndex(3), ' ');
      out += rng.NextBool(0.1) ? rng.NextString(1 + rng.NextIndex(4), "?#")
                               : words[rng.NextIndex(words.size())];
    }
    out.push_back('\n');
  }
  return out;
}

std::vector<std::string> Spellings(const grammar::Grammar& g, Rng& rng) {
  std::vector<std::string> words;
  for (const grammar::TokenDef& t : g.tokens()) {
    words.push_back(t.is_literal ? t.literal_text
                                 : std::to_string(rng.NextIndex(100000)));
  }
  return words;
}

const std::vector<std::string> kCalcWords = {"12+34", "abc", "9*8", "77",
                                             "5-5",   "xyz", "7/8"};
// The bytes that start a kCalcGrammar token (NUM or WORD).
constexpr std::string_view kCalcStarts =
    "0123456789abcdefghijklmnopqrstuvwxyz";

// Feeds `input` whole (one Feed) and returns the tags.
std::vector<Tag> FeedWhole(LazyDfaSession& session, std::string_view input) {
  std::vector<Tag> tags;
  const TagSink sink = [&](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  session.Feed(input, sink);
  session.Finish(sink);
  EXPECT_EQ(session.bytes_consumed(), input.size());
  return tags;
}

// Feeds `input` in random chunks of up to ~80 KiB, half of them long
// enough to lane.
std::vector<Tag> FeedLongChunks(LazyDfaSession& session,
                                std::string_view input, Rng& rng) {
  std::vector<Tag> tags;
  const TagSink sink = [&](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  for (size_t i = 0; i < input.size();) {
    const size_t n = rng.NextBool() ? 1 + rng.NextIndex(kLaneFloor)
                                    : kLaneFloor + rng.NextIndex(kLaneWindow);
    session.Feed(input.substr(i, n), sink);
    i += n;
  }
  session.Finish(sink);
  EXPECT_EQ(session.bytes_consumed(), input.size());
  return tags;
}

TEST(LazyDfaLaneTest, RandomNarrowGrammarsMatchFunctional) {
  Rng rng(0x1a4e5);
  for (int trial = 0; trial < 4; ++trial) {
    grammar::Grammar g = RandomNarrowGrammar(rng);
    const std::string input =
        RecordStream(Spellings(g, rng), rng, 3 * kLaneWindow / 2);
    for (ArmMode mode : kModes) {
      TaggerOptions opt;
      opt.arm_mode = mode;
      opt.longest_match = rng.NextBool();
      auto t = LazyDfaTagger::Create(&g, opt);
      ASSERT_TRUE(t.ok()) << t.status();
      const std::vector<Tag> want = Functional(g, opt, input);
      LazyDfaSession session = t->NewSession();
      for (int pass = 0; pass < 3; ++pass) {
        session.Reset();
        ExpectSameTags(want, pass == 1 ? FeedLongChunks(session, input, rng)
                                       : FeedWhole(session, input));
      }
      // An anchored stream dies with its first record, and one skip jumps
      // the rest of each chunk: nothing is left to lane.
      if (mode != ArmMode::kAnchored) {
        EXPECT_GT(session.lane_windows(), 0u) << "trial " << trial;
      }
    }
  }
}

// Records cut off mid-message: every line ends in the same 16 bytes, but
// a line "aa" leaves B armed for the next line and a line "bb" does not,
// so the memo's guesses miss half the time, and a wrong guess would tag
// the next line's "bb" differently. Those segments are re-run.
TEST(LazyDfaLaneTest, CutOffRecordsMissGuessesButStayExact) {
  grammar::Grammar g = MustParse("A [a]+\nB [b]+\n%%\ns: A B;\n%%\n");
  Rng rng(0xc07);
  std::string input;
  while (input.size() < 2 * kLaneWindow) {
    input += rng.NextBool() ? "aa" : "bb";
    input.append(16, ' ');
    input.push_back('\n');
  }
  for (ArmMode mode : {ArmMode::kScan, ArmMode::kResync}) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok()) << t.status();
    const std::vector<Tag> want = Functional(g, opt, input);
    LazyDfaSession session = t->NewSession();
    for (int pass = 0; pass < 2; ++pass) {
      session.Reset();
      ExpectSameTags(want, FeedWhole(session, input));
    }
    EXPECT_GT(session.lane_windows(), 0u);
    EXPECT_GT(session.lane_guess_misses(), 0u);
  }
}

// An early stop inside lane 0, 1 and 3 of a window: the tags and the byte
// ledger match the functional session's.
TEST(LazyDfaLaneTest, EarlyStopInsideLanes) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  Rng rng(0x5709);
  const std::string input =
      RecordStream({"abc", "12+3", "de", "4*56", "fgh"}, rng, kLaneWindow)
          .substr(0, kLaneWindow);
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    auto functional = FunctionalTagger::Create(&g, opt);
    auto lazy = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(functional.ok() && lazy.ok());
    const std::vector<Tag> all = functional->TagAll(input);
    // A warm-up pass teaches the memo the state at the cuts.
    LazyDfaSession session = lazy->NewSession();
    ExpectSameTags(all, FeedWhole(session, input));
    // Stop at the first tag past 1/8, 3/8 and 7/8 of the window.
    for (size_t eighth : {1u, 3u, 7u}) {
      const size_t at = kLaneWindow * eighth / 8;
      size_t limit = 0;
      while (limit < all.size() && all[limit].end < at) ++limit;
      if (limit == all.size()) continue;  // anchored: dead after record 1
      ++limit;
      auto run = [&](auto s) {
        std::vector<Tag> tags;
        s.Feed(input, [&](const Tag& tag) {
          tags.push_back(tag);
          return tags.size() < limit;
        });
        return std::make_pair(tags, s.bytes_consumed());
      };
      session.Reset();
      const uint64_t windows = session.lane_windows();
      std::vector<Tag> got;
      session.Feed(input, [&](const Tag& tag) {
        got.push_back(tag);
        return got.size() < limit;
      });
      const auto want = run(functional->NewSession());
      ExpectSameTags(want.first, got);
      EXPECT_EQ(session.bytes_consumed(), want.second) << "eighth " << eighth;
      EXPECT_EQ(session.lane_windows(), windows + 1);
    }
    EXPECT_EQ(session.lane_guess_misses(), 0u);
  }
}

// A starvation-sized cache: lanes stop at the builds that would flush,
// and the sequential path flushes in their place.
TEST(LazyDfaLaneTest, StarvedCacheFlushesWhileLaning) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  Rng rng(0xf1a5);
  const std::string input = RecordStream(
      {"abc", "12+3", "de", "4*56", "fgh", "x", "9/9"}, rng, 2 * kLaneWindow);
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    opt.dfa_cache_bytes = 1 << 11;
    opt.dfa_flush_fallback = 1u << 30;  // never give up caching
    auto t = LazyDfaTagger::Create(&g, opt);
    ASSERT_TRUE(t.ok()) << t.status();
    const std::vector<Tag> want = Functional(g, opt, input);
    LazyDfaSession session = t->NewSession();
    for (int pass = 0; pass < 3; ++pass) {
      session.Reset();
      ExpectSameTags(want, FeedLongChunks(session, input, rng));
    }
    EXPECT_GT(session.cache_flushes(), 0u);
    EXPECT_GT(session.lane_windows(), 0u);
    EXPECT_FALSE(session.fallback_active());
  }
}

// A fresh session over a loaded artifact lanes on its first pass,
// importing baked edges from inside the lanes.
TEST(LazyDfaLaneTest, ColdArtifactSessionLanes) {
  grammar::Grammar g = MustParse(kTwinGrammar);
  Rng rng(0xa27);
  const std::string input = RecordStream(
      {"abc", "12+3", "de", "4*56", "fgh", "x", "9/9"}, rng, 3 * kLaneWindow);
  for (ArmMode mode : kModes) {
    TaggerOptions opt;
    opt.arm_mode = mode;
    artifact::LoadedTagger loaded = LoadWithAot(g, opt, kFullClosure);
    ASSERT_NE(loaded.engine->aot(), nullptr);
    LazyDfaSession session = loaded.engine->NewSession();
    std::vector<Tag> got;
    const TagSink sink = [&](const Tag& tag) {
      got.push_back(tag);
      return true;
    };
    for (size_t i = 0; i < input.size(); i += kLaneWindow) {
      session.Feed(std::string_view(input).substr(i, kLaneWindow), sink);
    }
    session.Finish(sink);
    ExpectSameTags(Functional(g, opt, input), got);
    EXPECT_GT(session.lane_windows(), 0u);
    EXPECT_GT(session.cache_imports(), 0u);
  }
}

// Chunks of `input` under the lane floor, each cut just after a record
// byte followed by a byte of `starts`, which must be non-delimiters that
// can start a token: no idle skip can span such a cut (delimiter runs end
// at a non-delimiter, resync garbage at the record byte, scan-mode runs at
// a byte that can arm), so the chunked feed steps exactly as one whole
// feed without lanes would.
std::vector<std::string_view> SequentialChunks(std::string_view input,
                                               std::string_view starts) {
  std::vector<std::string_view> chunks;
  size_t from = 0;
  while (from < input.size()) {
    size_t cut = input.find('\n', from + kLaneFloor / 2);
    while (cut != std::string_view::npos && cut + 1 < input.size() &&
           starts.find(input[cut + 1]) == std::string_view::npos) {
      cut = input.find('\n', cut + 1);
    }
    const size_t end = cut == std::string_view::npos ? input.size() : cut + 1;
    EXPECT_LT(end - from, kLaneFloor);
    chunks.push_back(input.substr(from, end - from));
    from = end;
  }
  return chunks;
}

struct AttributionTotals {
  uint64_t hits = 0, misses = 0, skipped = 0;
  std::map<std::string, uint64_t> matches;
  std::vector<Tag> tags;
  bool operator==(const AttributionTotals& o) const {
    return hits == o.hits && misses == o.misses && skipped == o.skipped &&
           matches == o.matches && tags == o.tags;
  }
};

uint64_t SkippedBytes(SkipMetrics::Kind kind) {
  uint64_t n = 0;
  for (int s = 0; s < kNumSkipStrategies; ++s) {
    n += SkipMetrics::Get().Of(kind, static_cast<SkipStrategy>(s))->Value();
  }
  return n;
}

uint64_t AllSkippedBytes() {
  uint64_t n = 0;
  for (int k = 0; k < SkipMetrics::kNumKinds; ++k) {
    n += SkippedBytes(static_cast<SkipMetrics::Kind>(k));
  }
  return n;
}

// One pass of `session` over `chunks` with attribution on.
AttributionTotals AttributedPass(LazyDfaSession& session,
                                 const std::vector<std::string_view>& chunks) {
  obs::AttributionTable& table = obs::AttributionTable::Default();
  table.Clear();
  session.Reset();
  AttributionTotals out;
  const uint64_t skipped = AllSkippedBytes();
  const TagSink sink = [&](const Tag& tag) {
    out.tags.push_back(tag);
    return true;
  };
  for (std::string_view c : chunks) session.Feed(c, sink);
  session.Finish(sink);
  out.hits = table.dfa_cache_hits();
  out.misses = table.dfa_cache_misses();
  out.skipped = AllSkippedBytes() - skipped;
  for (const obs::AttributionTable::Row& row : table.RankedTokens()) {
    out.matches[row.name] = row.hits;
  }
  return out;
}

const char kAbGrammar[] = "A [a]+\nB [b]+\n%%\ns: A B;\n%%\n";

// As in CutOffRecordsMissGuessesButStayExact (guesses miss half the time),
// with new spellings joining every 16 KiB, so that lanes started from
// wrong guesses meet edges a sequential feed builds later or never.
std::string NewSpellingStream(Rng& rng) {
  const char* const kSpellings[] = {"aa",  "bb",  "ab",  "ba",   "aab",
                                    "bba", "a?b", "b?a", "ab?b", "?ab"};
  std::string out;
  while (out.size() < 3 * kLaneWindow) {
    const size_t known =
        std::min<size_t>(2 + out.size() / kLaneFloor, std::size(kSpellings));
    out += kSpellings[rng.NextIndex(known)];
    out.append(16, ' ');
    out += "\n";
  }
  return out;
}

// DFA hit/miss and per-token match totals, and the skip counters, of a
// laned feed equal those of a sequential feed of the same bytes, cold and
// warm, on a stream whose guesses hit and on ones whose guesses miss; over
// a compiled tagger (guessed lanes stop at misses) and over a loaded
// artifact (guessed lanes defer imports to the replay).
TEST(LazyDfaLaneTest, AttributionTotalsMatchSequentialFeed) {
  grammar::Grammar calc = MustParse(kCalcGrammar);
  grammar::Grammar ab = MustParse(kAbGrammar);
  Rng rng(0xa77);
  std::string missing;
  while (missing.size() < 2 * kLaneWindow) {
    missing += rng.NextBool() ? "12+34" : "12+";
    missing.append(16, ' ');
    missing += "\n";
  }
  const std::string ab_stream = NewSpellingStream(rng);
  struct Stream {
    const grammar::Grammar* g;
    std::string input;
    std::string_view starts;  // bytes that start a token (see above)
  };
  const Stream streams[] = {
      {&calc, RecordStream(kCalcWords, rng, 2 * kLaneWindow), kCalcStarts},
      {&calc, missing, kCalcStarts},
      {&ab, ab_stream, "a"}};
  const bool was_enabled = obs::AttributionTable::enabled();
  obs::AttributionTable::set_enabled(true);
  for (const Stream& stream : streams) {
    const grammar::Grammar& g = *stream.g;
    const std::string& input = stream.input;
    const std::vector<std::string_view> chunks =
        SequentialChunks(input, stream.starts);
    for (ArmMode mode : {ArmMode::kScan, ArmMode::kResync}) {
      for (bool baked : {false, true}) {
        TaggerOptions opt;
        opt.arm_mode = mode;
        auto compiled = LazyDfaTagger::Create(&g, opt);
        ASSERT_TRUE(compiled.ok()) << compiled.status();
        artifact::LoadedTagger loaded;
        if (baked) loaded = LoadWithAot(g, opt, kFullClosure);
        const LazyDfaTagger& t = baked ? *loaded.engine : *compiled;
        LazyDfaSession laned = t.NewSession();
        LazyDfaSession sequential = t.NewSession();
        for (int pass = 0; pass < 2; ++pass) {
          const AttributionTotals want = AttributedPass(sequential, chunks);
          const AttributionTotals got = AttributedPass(laned, {input});
          EXPECT_TRUE(got == want)
              << (baked ? "baked" : "compiled") << " pass " << pass
              << ": hits " << got.hits << "/" << want.hits << " misses "
              << got.misses << "/" << want.misses << " skipped "
              << got.skipped << "/" << want.skipped;
          EXPECT_GT(want.hits, 0u);
        }
        EXPECT_GT(laned.lane_windows(), 0u);
        EXPECT_EQ(sequential.lane_windows(), 0u);
        EXPECT_EQ(laned.cache_imports(), sequential.cache_imports());
      }
    }
  }
  obs::AttributionTable::Default().Clear();
  obs::AttributionTable::set_enabled(was_enabled);
}

// Guessed lanes never write the table, so a laned feed grows, flushes and
// falls back exactly as a sequential feed of the same bytes: at a
// starvation-sized cache with the default fallback threshold, on a stream
// whose guesses miss, the table, the flush count and the fallback verdict
// match after every laned chunk, compiled and baked.
TEST(LazyDfaLaneTest, GuessesLeaveFlushesAndFallbackUnchanged) {
  grammar::Grammar g = MustParse(kAbGrammar);
  Rng rng(0xf10);
  const std::string input = NewSpellingStream(rng);
  // The laned session takes four sequential chunks per Feed (32-64 KiB).
  const std::vector<std::string_view> chunks = SequentialChunks(input, "a");
  constexpr size_t kPerFeed = 4;
  for (ArmMode mode : {ArmMode::kScan, ArmMode::kResync}) {
    for (bool baked : {false, true}) {
      TaggerOptions opt;
      opt.arm_mode = mode;
      // The fourth flush (the default threshold) falls back after several
      // laned windows.
      opt.dfa_cache_bytes = 2300;
      ASSERT_EQ(opt.dfa_flush_fallback, TaggerOptions{}.dfa_flush_fallback);
      auto compiled = LazyDfaTagger::Create(&g, opt);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      artifact::LoadedTagger loaded;
      if (baked) loaded = LoadWithAot(g, opt, kFullClosure);
      const LazyDfaTagger& t = baked ? *loaded.engine : *compiled;
      const std::vector<Tag> want = Functional(g, opt, input);
      LazyDfaSession laned = t.NewSession();
      LazyDfaSession sequential = t.NewSession();
      for (int pass = 0; pass < 3; ++pass) {
        std::vector<Tag> got_laned, got_sequential;
        const TagSink to_laned = [&](const Tag& tag) {
          got_laned.push_back(tag);
          return true;
        };
        const TagSink to_sequential = [&](const Tag& tag) {
          got_sequential.push_back(tag);
          return true;
        };
        laned.Reset();
        sequential.Reset();
        for (size_t i = 0; i < chunks.size(); i += kPerFeed) {
          const size_t last = std::min(i + kPerFeed, chunks.size()) - 1;
          const char* begin = chunks[i].data();
          laned.Feed(std::string_view(begin, static_cast<size_t>(
                                                 chunks[last].data() +
                                                 chunks[last].size() - begin)),
                     to_laned);
          for (size_t c = i; c <= last; ++c) {
            sequential.Feed(chunks[c], to_sequential);
          }
          ASSERT_EQ(laned.cache_flushes(), sequential.cache_flushes())
              << "pass " << pass << " chunk " << i;
          ASSERT_EQ(laned.fallback_active(), sequential.fallback_active())
              << "pass " << pass << " chunk " << i;
          ASSERT_EQ(laned.cache_states(), sequential.cache_states())
              << "pass " << pass << " chunk " << i;
          ASSERT_EQ(laned.cache_bytes(), sequential.cache_bytes())
              << "pass " << pass << " chunk " << i;
        }
        laned.Finish(to_laned);
        sequential.Finish(to_sequential);
        ExpectSameTags(want, got_laned);
        ExpectSameTags(want, got_sequential);
      }
      EXPECT_GT(sequential.cache_flushes(), 0u);
      EXPECT_TRUE(sequential.fallback_active());
      EXPECT_GT(laned.lane_windows(), 0u);
      EXPECT_GT(laned.lane_guess_misses(), 0u);
      EXPECT_EQ(sequential.lane_windows(), 0u);
    }
  }
}

// Dead armed states skip only delimiter runs, and only those edges stay
// slow: an armed run of two or more delimiters still counts its kDelimiter
// skip, laned or not.
TEST(LazyDfaLaneTest, ArmedDelimiterRunsStillSkip) {
  grammar::Grammar g = MustParse(kCalcGrammar);
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  auto t = LazyDfaTagger::Create(&g, opt);
  ASSERT_TRUE(t.ok()) << t.status();
  // "12+" leaves NUM armed; once the lagging machine has stepped the
  // first two spaces nothing is live, and the other four are the run.
  const std::string record = "12+      34\n";
  std::string input;
  while (input.size() < 2 * kLaneWindow) input += record;
  const std::vector<Tag> want = Functional(g, opt, input);
  for (bool laned : {false, true}) {
    LazyDfaSession session = t->NewSession();
    std::vector<std::string_view> chunks =
        laned ? std::vector<std::string_view>{input}
              : SequentialChunks(input, kCalcStarts);
    for (int pass = 0; pass < 2; ++pass) {
      session.Reset();
      const uint64_t before = SkippedBytes(SkipMetrics::kDelimiter);
      std::vector<Tag> got;
      const TagSink sink = [&](const Tag& tag) {
        got.push_back(tag);
        return true;
      };
      for (std::string_view c : chunks) session.Feed(c, sink);
      session.Finish(sink);
      ExpectSameTags(want, got);
      // Each record's run: one real step on its last space, three
      // skipped.
      EXPECT_EQ(SkippedBytes(SkipMetrics::kDelimiter) - before,
                3 * (input.size() / record.size()))
          << (laned ? "laned" : "sequential") << " pass " << pass;
    }
    EXPECT_EQ(session.lane_windows() > 0, laned);
  }
}

}  // namespace
}  // namespace cfgtag::tagger
