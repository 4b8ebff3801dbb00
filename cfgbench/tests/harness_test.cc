// The benchmark's own checks: its oracles must catch a wrong answer, its
// tail helper must read known data right, and its inputs must follow the
// seed.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <numeric>

#include "harness/stats.h"
#include "harness/workloads.h"

namespace cfgbench {
namespace {

using cfgtag::nids::Alert;

TEST(Stats, PercentileInterpolatesLinearly) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 500.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 1000);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  const Tail tail = TailOfSorted(v);
  // p99 = 990.01 leaves exactly ten samples above it.
  EXPECT_DOUBLE_EQ(tail.percentile, 99);
  EXPECT_NEAR(tail.value, 990.01, 1e-9);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);

  std::vector<double> few(150);
  std::iota(few.begin(), few.end(), 0.0);
  EXPECT_DOUBLE_EQ(TailOfSorted(few).percentile, 90);

  const Tail small = TailOfSorted({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(small.percentile, 50);
  EXPECT_DOUBLE_EQ(small.value, 3);
}

TEST(Stats, BlockTailIsMedianAtTheLowestCommonPercentile) {
  std::vector<std::vector<double>> blocks(3, std::vector<double>(1000));
  for (size_t b = 0; b < blocks.size(); ++b) {
    std::iota(blocks[b].begin(), blocks[b].end(), 1000.0 * b + 1);
  }
  Tail tail = MedianTailOfBlocks(blocks);
  EXPECT_DOUBLE_EQ(tail.percentile, 99);
  EXPECT_NEAR(tail.value, 1990.01, 1e-9);
  EXPECT_EQ(tail.samples, 3000u);
  EXPECT_EQ(tail.beyond, 10u);

  // A block of 150 supports only p90, so every block is read at p90.
  blocks[0].resize(150);
  tail = MedianTailOfBlocks(blocks);
  EXPECT_DOUBLE_EQ(tail.percentile, 90);
  EXPECT_NEAR(tail.value, 1900.1, 1e-9);
  EXPECT_EQ(tail.samples, 2150u);
  EXPECT_EQ(tail.beyond, 15u);
}

int FailedRouteOps(const cfgtag::xmlrpc::RouterConfig& served) {
  std::unique_ptr<Workload> w = MakeRouteWorkload(served);
  w->Generate(11);
  int failed = w->Setup(nullptr) ? 0 : 1;
  for (uint64_t i = 0; i < 4096; ++i) failed += w->RunOp(i, nullptr).ok ? 0 : 1;
  return failed;
}

TEST(RouteOracle, CorrectRouterHasNoErrors) {
  EXPECT_EQ(FailedRouteOps(RouteConfig()), 0);
}

TEST(RouteOracle, SwappedPortGivesErrors) {
  cfgtag::xmlrpc::RouterConfig swapped = RouteConfig();
  for (auto& s : swapped.services) {
    if (s.name == "buy") s.port = 1;
  }
  EXPECT_GT(FailedRouteOps(swapped), 0);
}

TEST(NidsOracle, DroppedAndExtraAlertsAreCounted) {
  const std::vector<Alert> planted = {{0, 17}, {3, 40}, {63, 41}, {5, 90}};
  std::vector<Alert> reordered = {planted[3], planted[1], planted[0],
                                  planted[2]};
  EXPECT_EQ(CountAlertMismatches(planted, reordered), 0u);

  std::vector<Alert> dropped = planted;
  dropped.erase(dropped.begin() + 1);
  EXPECT_EQ(CountAlertMismatches(planted, dropped), 1u);

  std::vector<Alert> extra = planted;
  extra.push_back({2, 55});
  EXPECT_EQ(CountAlertMismatches(planted, extra), 1u);

  std::vector<Alert> duplicate = planted;
  duplicate.push_back(planted[0]);
  EXPECT_EQ(CountAlertMismatches(planted, duplicate), 1u);

  std::vector<Alert> moved = planted;
  moved[2].end += 1;
  EXPECT_EQ(CountAlertMismatches(planted, moved), 2u);
}

TEST(Inputs, DigestFollowsTheSeed) {
  const std::string dir = CFGBENCH_GRAMMARS;
  std::vector<std::unique_ptr<Workload>> workloads;
  workloads.push_back(MakeRouteWorkload(RouteConfig()));
  workloads.push_back(MakeTagStreamWorkload(dir));
  workloads.push_back(MakeNidsBatchWorkload(dir));
  workloads.push_back(MakeCompileWorkload(dir));
  for (const std::unique_ptr<Workload>& w : workloads) {
    ASSERT_NE(w, nullptr);
    const uint64_t a = w->Generate(1);
    EXPECT_EQ(w->Generate(1), a);
    EXPECT_NE(w->Generate(2), a);
  }
}

// Known library defect: regex::PositionAutomaton::EnsureTables() builds the
// functional engine's step tables lazily inside a const method without
// synchronisation, so the first concurrent scans of a fresh filter race
// (wrong alerts, at times a corrupted heap). nids_batch's set-up scans one
// flow first and never meets it; this test batches a whole window as each
// fresh filter's first scan, in a child process because the heap may not
// survive. A reproduced race is reported as a skip naming the defect, so
// the suite stays usable until the library is fixed; then the test passes.
TEST(NidsKnownDefect, FreshFilterBatchMatchesPlantedAlerts) {
  constexpr int kTrials = 20;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::optional<size_t> mismatches =
        FreshBatchMismatches(CFGBENCH_GRAMMARS, 7, kTrials);
    _exit(!mismatches ? 2 : *mismatches == 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return;
  ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
      << "the nids_batch filter could not be built";
  GTEST_SKIP() << "KNOWN DEFECT reproduced: "
               << (WIFSIGNALED(status)
                       ? "child died of signal " +
                             std::to_string(WTERMSIG(status))
                       : std::string("alerts differ from the planted set"))
               << " over " << kTrials
               << " fresh filters whose first scan is a concurrent "
                  "ScanBatch (lazy step tables built unsynchronised in "
                  "regex::PositionAutomaton)";
}

}  // namespace
}  // namespace cfgbench
