// End-to-end alert oracle for ContextFilter: a test-local reference of the
// span-filtering algorithm (one Aho–Corasick pass over all rules per
// recovered context span, each match kept only when its rule binds to the
// span's token, then one context-free pass over the stream) must equal
// Scan, ScanBatch, ScanStream and the consumed prefix of a tripped
// controlled Scan on generated request traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/resilience/deadline.h"
#include "core/resilience/fault_injector.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"
#include "nids/scan_engine.h"
#include "tagger/lazy_dfa.h"
#include "tagger/naive_matcher.h"

namespace cfgtag::nids {
namespace {

namespace res = core::resilience;

// The request protocol of the nids_batch workload: PATH and WORD share
// one pattern, so only the grammatical position tells them apart.
constexpr char kProtocol[] = R"grm(
PATH [a-zA-Z0-9/._-]+
WORD [a-zA-Z0-9/._-]+
%%
msg:  "REQ" path "HDR" hval "END";
path: PATH;
hval: WORD;
%%
)grm";

// Filler for paths and header values: no rule pattern forms from it.
constexpr char kFiller[] = "ghjkmnpqrtuvwyz0123456789";

// Rules on two tokens, a pattern shared by a PATH rule and a context-free
// rule, a pattern shared by two PATH rules, a PATH pattern that is a
// suffix of another, and seeded synthetic ones.
std::vector<Rule> MakeRules(Rng& rng) {
  std::vector<Rule> rules = {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"PASSWD-ANY", "/etc/passwd", "", 2},
      {"PASSWD-NAME", "passwd", "PATH", 1},
      {"DROPPER", "cmd.exe", "PATH", 2},
      {"DROPPER-2", "cmd.exe", "PATH", 1},
      {"AGENT", "sqlmap", "WORD", 2},
      {"SHELL-HDR", "bin/sh", "WORD", 2},
      {"PROBE", "cfx" + rng.NextString(3, "abcdef"), "", 1},
  };
  for (int i = 0; i < 12; ++i) {
    rules.push_back({"SYN-" + std::to_string(i),
                     "sig" + rng.NextString(1 + rng.NextIndex(4), "abcdef"),
                     i % 3 == 0 ? "WORD" : "PATH", 1});
  }
  return rules;
}

ContextFilter MakeFilter(const std::vector<Rule>& rules,
                         const char* text = kProtocol) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  hwgen::HwOptions options;
  options.tagger.arm_mode = tagger::ArmMode::kResync;
  auto filter = ContextFilter::Create(std::move(g).value(), rules, options);
  EXPECT_TRUE(filter.ok()) << filter.status();
  return std::move(filter).value();
}

// "REQ /<path> HDR <value> END\n" records with random plants of any rule's
// pattern in the path or the header value: a plant in its rule's context
// is a true alert, elsewhere a decoy, and context-free patterns alert
// anywhere.
std::string Traffic(const std::vector<Rule>& rules, Rng& rng, int records) {
  const std::string filler(kFiller);
  const auto field = [&] {
    std::string s = rng.NextString(1 + rng.NextIndex(6), filler);
    if (rng.NextBool(0.3)) s += rules[rng.NextIndex(rules.size())].pattern;
    if (rng.NextBool(0.5)) s += rng.NextString(1 + rng.NextIndex(4), filler);
    return s;
  };
  std::string out;
  for (int r = 0; r < records; ++r) {
    out += "REQ /" + field() + " HDR agent-" + field() + " END\n";
  }
  return out;
}

// The reference: spans recovered from `tags` exactly as ContextFilter
// documents them, (previous tag end, tag end] with shared end offsets
// sharing a span, every rule matched over each span and filtered by its
// binding, then the context-free rules over stream[0, global_len).
std::vector<Alert> Reference(const ContextFilter& filter,
                             const std::vector<tagger::Tag>& tags,
                             std::string_view stream, size_t global_len) {
  const std::vector<Rule>& rules = filter.rules();
  std::vector<std::string> patterns;
  std::vector<int32_t> binding;  // token id, -1 = context-free
  for (const Rule& r : rules) {
    patterns.push_back(r.pattern);
    binding.push_back(r.context_token.empty()
                          ? -1
                          : filter.tagger().grammar().FindToken(
                                r.context_token));
  }
  const tagger::NaiveMatcher all(patterns);
  std::vector<Alert> alerts;
  uint64_t prev_end = 0, prev_begin = 0;
  bool any_tag = false;
  for (const tagger::Tag& tag : tags) {
    const uint64_t begin = !any_tag              ? 0
                           : tag.end == prev_end ? prev_begin
                                                 : prev_end + 1;
    if (begin < stream.size()) {
      all.ScanWith(stream.substr(begin, tag.end - begin + 1),
                   [&](int32_t p, uint64_t end) {
                     if (binding[p] >= 0 && binding[p] == tag.token) {
                       alerts.push_back(
                           Alert{static_cast<size_t>(p), begin + end});
                     }
                     return true;
                   });
    }
    prev_begin = begin;
    prev_end = tag.end;
    any_tag = true;
  }
  all.ScanWith(stream.substr(0, global_len), [&](int32_t p, uint64_t end) {
    if (binding[p] < 0) alerts.push_back(Alert{static_cast<size_t>(p), end});
    return true;
  });
  std::stable_sort(
      alerts.begin(), alerts.end(),
      [](const Alert& a, const Alert& b) { return a.end < b.end; });
  return alerts;
}

std::vector<Alert> FullReference(const ContextFilter& filter,
                                 std::string_view stream) {
  return Reference(filter, filter.tagger().Tag(stream), stream,
                   stream.size());
}

// What a scan that stopped after `consumed` bytes has seen: the tags the
// engine emits for that prefix with no end-of-stream flush.
std::vector<Alert> PrefixReference(const ContextFilter& filter,
                                   std::string_view stream, size_t consumed) {
  std::vector<tagger::Tag> tags;
  tagger::LazyDfaSession session(&filter.tagger().engine());
  session.Feed(stream.substr(0, consumed), [&](const tagger::Tag& t) {
    tags.push_back(t);
    return true;
  });
  return Reference(filter, tags, stream, consumed);
}

class AlertOracleTest : public ::testing::Test {
 protected:
  void TearDown() override { res::FaultInjector::Instance().DisarmAll(); }
};

TEST_F(AlertOracleTest, ScanMatchesReference) {
  size_t bound = 0, ungated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const std::vector<Rule> rules = MakeRules(rng);
    const ContextFilter filter = MakeFilter(rules);
    const std::string stream = Traffic(rules, rng, 80);
    const std::vector<Alert> want = FullReference(filter, stream);
    ASSERT_EQ(filter.Scan(stream), want) << "seed " << seed;
    for (const Alert& a : want) {
      bound += rules[a.rule_index].context_token.empty() ? 0 : 1;
    }
    ungated += filter.ScanUngated(stream).size();
    // Cross-check the per-context-free and ungated entry points.
    std::vector<Alert> context_free;
    for (const Alert& a : want) {
      if (rules[a.rule_index].context_token.empty()) {
        context_free.push_back(a);
      }
    }
    EXPECT_EQ(filter.ScanContextFree(stream), context_free) << seed;
  }
  // The traffic exercises both sides: bound alerts fire and decoys are
  // suppressed.
  EXPECT_GT(bound, 0u);
  EXPECT_GT(ungated, bound);
}

TEST_F(AlertOracleTest, SharedEndOffsetSpansMatchReference) {
  // NUM and HEX lexemes overlap, so a digit run tags both tokens at one
  // end offset and the two tags share a span.
  constexpr char kOverlap[] = R"grm(
NUM [0-9]+
HEX [0-9a-f]+
%%
msg: "GO" v "END";
v: NUM;
v: HEX;
%%
)grm";
  const std::vector<Rule> rules = {
      {"NUM-12", "12", "NUM", 1},
      {"HEX-12", "12", "HEX", 1},
      {"HEX-AB", "ab", "HEX", 2},
      {"ANY-99", "99", "", 1},
      {"NUM-99", "99", "NUM", 1},
  };
  const ContextFilter filter = MakeFilter(rules, kOverlap);
  Rng rng(31);
  std::string stream;
  for (int r = 0; r < 200; ++r) {
    stream += "GO " +
              rng.NextString(1 + rng.NextIndex(8),
                             rng.NextBool(0.5) ? "0123456789" : "0129abf") +
              " END\n";
  }
  const std::vector<Alert> want = FullReference(filter, stream);
  size_t num = 0, hex = 0;
  for (const Alert& a : want) {
    num += rules[a.rule_index].context_token == "NUM" ? 1 : 0;
    hex += rules[a.rule_index].context_token == "HEX" ? 1 : 0;
  }
  EXPECT_GT(num, 0u);
  EXPECT_GT(hex, num);
  EXPECT_EQ(filter.Scan(stream), want);
}

TEST_F(AlertOracleTest, ScanBatchAndScanStreamMatchReference) {
  Rng rng(77);
  const std::vector<Rule> rules = MakeRules(rng);
  const ContextFilter filter = MakeFilter(rules);
  std::vector<std::string> storage;
  for (int i = 0; i < 6; ++i) {
    storage.push_back(Traffic(rules, rng, 5 + 40 * i));
  }
  const std::vector<std::string_view> streams(storage.begin(), storage.end());
  ScanEngineOptions options;
  options.num_threads = 3;
  options.min_shard_bytes = 512;  // many shards on a small stream
  const ScanEngine engine(&filter, options);
  const std::vector<StreamResult> batch = engine.ScanBatch(streams);
  ASSERT_EQ(batch.size(), streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    const std::vector<Alert> want = FullReference(filter, streams[i]);
    EXPECT_EQ(batch[i].alerts, want) << "batch stream " << i;
    EXPECT_EQ(engine.ScanStream(streams[i]).alerts, want)
        << "sharded stream " << i;
  }
}

TEST_F(AlertOracleTest, DeadlineTripMatchesPrefixReference) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(100 + seed);
    const std::vector<Rule> rules = MakeRules(rng);
    const ContextFilter filter = MakeFilter(rules);
    const std::string stream = Traffic(rules, rng, 60);
    res::ScanControl control;
    control.deadline = res::Deadline::AfterMillis(60000);
    control.check_interval_bytes = 16 + rng.NextIndex(1024);
    const size_t chunks =
        (stream.size() + control.check_interval_bytes - 1) /
        control.check_interval_bytes;
    // The k-th control check sees the clock two minutes ahead: checks run
    // before each chunk and once after the last, so k = chunks + 1 trips
    // with every byte fed but no end-of-stream flush.
    const uint32_t k = static_cast<uint32_t>(1 + rng.NextIndex(chunks + 1));
    res::FaultInjector::Instance().DisarmAll();
    ASSERT_TRUE(res::FaultInjector::Instance()
                    .Arm("deadline.clock", k, /*arg_ms=*/120000)
                    .ok());
    std::vector<Alert> alerts;
    ScanStats stats;
    const Status s = filter.Scan(stream, control, &alerts, &stats);
    res::FaultInjector::Instance().DisarmAll();
    ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
    const size_t consumed = std::min<size_t>(
        (k - 1) * control.check_interval_bytes, stream.size());
    ASSERT_EQ(stats.bytes, consumed) << "seed " << seed;
    EXPECT_EQ(alerts, PrefixReference(filter, stream, consumed))
        << "seed " << seed << ", tripped after " << consumed << " of "
        << stream.size() << " bytes";
  }
}

TEST_F(AlertOracleTest, CancelMidScanMatchesPrefixReference) {
  // Each chunk stalls 1 ms and a watcher cancels once progress passes a
  // random point; wherever the scan then stops, its alerts must be the
  // reference's for exactly the consumed prefix.
  ASSERT_TRUE(
      res::FaultInjector::Instance().Arm("scan.chunk", 1, /*arg_ms=*/1).ok());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(200 + seed);
    const std::vector<Rule> rules = MakeRules(rng);
    const ContextFilter filter = MakeFilter(rules);
    const std::string stream = Traffic(rules, rng, 60);
    res::ScanControl control;
    control.cancel = res::CancelToken();
    control.check_interval_bytes = 128 + rng.NextIndex(256);
    const uint64_t threshold = rng.NextIndex(stream.size() / 2);
    std::atomic<uint64_t> progress{0};
    std::atomic<bool> done{false};
    std::thread watcher([&] {
      while (progress.load() < threshold && !done.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      control.cancel.Cancel();
    });
    std::vector<Alert> alerts;
    ScanStats stats;
    const Status s = filter.Scan(stream, control, &alerts, &stats, &progress);
    done.store(true);
    watcher.join();
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kCancelled) << s;
    const std::vector<Alert> want =
        s.ok() ? FullReference(filter, stream)
               : PrefixReference(filter, stream, stats.bytes);
    EXPECT_EQ(alerts, want) << "seed " << seed << ", consumed "
                            << stats.bytes << " of " << stream.size();
  }
}

}  // namespace
}  // namespace cfgtag::nids
