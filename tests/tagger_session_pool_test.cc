// FusedSessionPool (BasicSessionPool over FusedSessions): Run() must reuse
// pooled scratch state across calls and across threads, survive
// FusedTagger moves (the rebind path), and hand back clean sessions after
// early-stopped scans.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "grammar/grammar_parser.h"
#include "obs/metrics.h"
#include "tagger/fused_model.h"
#include "tagger/session_pool.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(SessionPoolTest, RunReusesOnePooledSession) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  const auto first = t->TagAll("<n>123</n>");
  const auto second = t->TagAll("<n>123</n>");
  EXPECT_EQ(first, second);
  EXPECT_EQ(t->session_pool().sessions_created(), 1u);
  EXPECT_GE(t->session_pool().sessions_reused(), 1u);
  EXPECT_EQ(t->session_pool().IdleCount(), 1u);
}

TEST(SessionPoolTest, AcquireTracksCheckouts) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  FusedSessionPool& pool = t->session_pool();
  {
    FusedSessionPool::Handle a = pool.Acquire(&*t);
    FusedSessionPool::Handle b = pool.Acquire(&*t);
    EXPECT_EQ(pool.IdleCount(), 0u);
    EXPECT_EQ(pool.sessions_created(), 2u);
    // Handles are movable; the moved-from handle returns nothing.
    FusedSessionPool::Handle c = std::move(a);
    EXPECT_NE(c.get(), nullptr);
  }
  EXPECT_EQ(pool.IdleCount(), 2u);
  EXPECT_EQ(pool.HighWater(), 2u);
  // A temporary single checkout is a new (one-deep) burst: when it drains,
  // the high-water trim shrinks the idle list to that burst's peak.
  pool.Acquire(&*t);
  EXPECT_EQ(pool.IdleCount(), 1u);
  EXPECT_EQ(pool.sessions_created(), 2u);
  EXPECT_EQ(pool.sessions_dropped(), 1u);
}

TEST(SessionPoolTest, HardCapBoundsIdleSessions) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  FusedSessionPool& pool = t->session_pool();
  pool.set_max_idle(2);
  {
    std::vector<FusedSessionPool::Handle> handles;
    for (int i = 0; i < 5; ++i) handles.push_back(pool.Acquire(&*t));
    EXPECT_EQ(pool.sessions_created(), 5u);
  }
  // Five returned, at most two kept (the cap applies before any trim).
  EXPECT_EQ(pool.IdleCount(), 2u);
  EXPECT_EQ(pool.sessions_dropped(), 3u);
  EXPECT_EQ(pool.HighWater(), 5u);
}

TEST(SessionPoolTest, BurstTrimReleasesScratchAfterDrain) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  FusedSessionPool& pool = t->session_pool();
  {
    std::vector<FusedSessionPool::Handle> handles;
    for (int i = 0; i < 8; ++i) handles.push_back(pool.Acquire(&*t));
  }
  // The burst's own peak was 8, so all 8 stay resident right after it...
  EXPECT_EQ(pool.IdleCount(), 8u);
  // ...but the next steady single-session use trims down to its own peak:
  // a one-off 8-way burst does not pin 8 sessions' scratch forever.
  (void)t->TagAll("ab");
  EXPECT_EQ(pool.IdleCount(), 1u);
  EXPECT_EQ(pool.sessions_dropped(), 7u);
}

TEST(SessionPoolTest, IdleGaugeTracksPool) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  FusedSessionPool& pool = t->session_pool();
  obs::Gauge* idle = obs::MetricsRegistry::Default().GetGauge(
      "cfgtag_session_pool_idle_sessions");
  obs::Counter* dropped = obs::MetricsRegistry::Default().GetCounter(
      "cfgtag_session_pool_dropped_total");
  const uint64_t dropped_before = dropped->Value();
  {
    FusedSessionPool::Handle a = pool.Acquire(&*t);
    FusedSessionPool::Handle b = pool.Acquire(&*t);
    EXPECT_EQ(idle->Value(), 0.0);
  }
  EXPECT_EQ(idle->Value(), static_cast<double>(pool.IdleCount()));
  pool.set_max_idle(1);
  { FusedSessionPool::Handle a = pool.Acquire(&*t); }
  // One of the two sessions was dropped by the lowered cap (or the burst
  // trim); the process-wide counter advanced by exactly that amount.
  EXPECT_EQ(pool.IdleCount(), 1u);
  EXPECT_EQ(idle->Value(), 1.0);
  EXPECT_EQ(dropped->Value() - dropped_before, pool.sessions_dropped());
}

TEST(SessionPoolTest, SurvivesTaggerMove) {
  // CompiledTagger::Compile moves the FusedTagger after Create() (into
  // the lazy-DFA engine), so pooled sessions built before the move hold a
  // stale tagger pointer; Acquire() must rebind them to the new address.
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM \"x\";\n%%\n");
  auto created = FusedTagger::Create(&g, {});
  ASSERT_TRUE(created.ok());
  const auto before = created->TagAll("123x");
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(created->session_pool().sessions_created(), 1u);

  FusedTagger moved = std::move(created).value();
  const auto after = moved.TagAll("123x");
  EXPECT_EQ(before, after);
  // Same pool, same session — rebound, not reallocated.
  EXPECT_EQ(moved.session_pool().sessions_created(), 1u);
  EXPECT_GE(moved.session_pool().sessions_reused(), 1u);
}

TEST(SessionPoolTest, EarlyStoppedSessionIsCleanOnReuse) {
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" \"c\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  int seen = 0;
  t->Run("a b c", [&seen](const Tag&) { return ++seen < 2; });
  EXPECT_EQ(seen, 2);
  // The half-consumed session went back to the pool; the next Run must
  // start from scratch and see all three tokens.
  EXPECT_EQ(t->TagAll("a b c").size(), 3u);
  EXPECT_EQ(t->session_pool().sessions_created(), 1u);
}

TEST(SessionPoolTest, ConcurrentRunsShareThePool) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  const std::string input = "<n>4711</n>";
  const auto expected = t->TagAll(input);
  // Hold one checkout open while the workers run. Were outstanding
  // checkouts to drop to 0 between worker runs, whatever the cause (the
  // scheduler included), that drain would end the burst and the documented
  // burst trim could free sessions that the next runs then rebuild. The
  // held checkout reuses the session the TagAll above built.
  FusedSessionPool::Handle hold = t->session_pool().Acquire(&*t);

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 50;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        if (t->TagAll(input) != expected) ++mismatches[w];
      }
    });
  }
  for (auto& th : workers) th.join();
  hold = FusedSessionPool::Handle();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(mismatches[w], 0);
  const FusedSessionPool& pool = t->session_pool();
  // At most one session per concurrently-running thread was ever built:
  // with no drain, no budget limit and the idle cap of 64 out of reach,
  // no session is freed, and one is built only when every existing one is
  // checked out. At most kThreads worker checkouts plus the held one are
  // out at once, so at most kThreads + 1 sessions exist.
  EXPECT_LE(pool.sessions_created(), static_cast<uint64_t>(kThreads) + 1);
  // Every checkout is one create or one reuse: the TagAll for `expected`,
  // the held checkout, and kThreads * kRunsPerThread worker runs.
  EXPECT_EQ(pool.sessions_created() + pool.sessions_reused(),
            static_cast<uint64_t>(kThreads) * kRunsPerThread + 2);
}

TEST(SessionPoolTest, TrimIdleDropsAndCounts) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  FusedSessionPool& pool = t->session_pool();
  {
    std::vector<FusedSessionPool::Handle> handles;
    for (int i = 0; i < 6; ++i) handles.push_back(pool.Acquire(&*t));
  }
  ASSERT_EQ(pool.IdleCount(), 6u);
  pool.TrimIdle(2);
  EXPECT_EQ(pool.IdleCount(), 2u);
  EXPECT_EQ(pool.sessions_dropped(), 4u);
  pool.TrimIdle(4);  // keep above current idle: no-op
  EXPECT_EQ(pool.IdleCount(), 2u);
  EXPECT_EQ(pool.sessions_dropped(), 4u);
  pool.TrimIdle(0);
  EXPECT_EQ(pool.IdleCount(), 0u);
  // Every created session is now accounted as dropped.
  EXPECT_EQ(pool.sessions_dropped(), pool.sessions_created());
}

// Contention oracle: hammer Acquire/Release from N threads while another
// thread keeps retuning retention (set_max_idle, TrimIdle). The pool's
// counters must reconcile against a single-threaded bookkeeping oracle:
//
//   created + reused == total acquires   (every checkout is exactly one)
//   created == dropped + IdleCount       (at quiescence: every session
//                                         ever built is either freed and
//                                         counted, or sitting idle)
//
// Any double-release, lost return, or drop that skipped the counter breaks
// one of the two identities.
TEST(SessionPoolTest, ContentionCountersReconcileAgainstOracle) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto t = FusedTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  FusedSessionPool& pool = t->session_pool();

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 300;
  std::atomic<bool> stop_tuning{false};
  std::atomic<uint64_t> acquires{0};

  std::thread tuner([&] {
    size_t n = 1;
    while (!stop_tuning.load(std::memory_order_acquire)) {
      pool.set_max_idle(1 + (n % 8));
      pool.TrimIdle(n % 4);
      (void)pool.IdleCount();
      (void)pool.HighWater();
      ++n;
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Mix plain checkouts, nested checkouts (forces pool growth), and
        // full tagging runs through the pool's hot path.
        FusedSessionPool::Handle a = pool.Acquire(&*t);
        acquires.fetch_add(1, std::memory_order_relaxed);
        if (i % 3 == 0) {
          FusedSessionPool::Handle b = pool.Acquire(&*t);
          acquires.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 5 == w % 5) {
          (void)t->TagAll("<n>42</n>");  // acquires internally
          acquires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : workers) th.join();
  stop_tuning.store(true, std::memory_order_release);
  tuner.join();

  // Identity 1: every acquire was served by exactly one create-or-reuse.
  EXPECT_EQ(pool.sessions_created() + pool.sessions_reused(),
            acquires.load());
  // Identity 2 (quiescence): built == freed + still-idle.
  EXPECT_EQ(pool.sessions_created(),
            pool.sessions_dropped() + pool.IdleCount());
  EXPECT_GE(pool.HighWater(), 1u);
  EXPECT_LE(pool.HighWater(), static_cast<size_t>(2 * kThreads));
  // Drain everything: the idle remainder converts to drops, closing the
  // books completely.
  pool.TrimIdle(0);
  EXPECT_EQ(pool.IdleCount(), 0u);
  EXPECT_EQ(pool.sessions_created(), pool.sessions_dropped());
}

}  // namespace
}  // namespace cfgtag::tagger
