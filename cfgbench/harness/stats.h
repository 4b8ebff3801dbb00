#ifndef CFGBENCH_HARNESS_STATS_H_
#define CFGBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace cfgbench {

// Linear-interpolated percentile (p in [0, 100]) of an ascending,
// non-empty sample vector — the same rule as numpy's default.
double Percentile(const std::vector<double>& sorted, double p);

// Median of an unsorted, non-empty sample vector.
double Median(std::vector<double> values);

// The highest percentile of a fixed ladder (50, 90, 95, 99) that still has
// at least ten samples strictly above it, in an ascending sample vector.
// A tail read off fewer samples is one stall, not a distribution; above p99 a tail on a shared machine
// measures the neighbours, and neither repeats from run to run.
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t samples = 0;  // all samples the tail was read from
  size_t beyond = 0;   // samples strictly above `value`
};
Tail TailOfSorted(const std::vector<double>& sorted);

// The tail of a run split into consecutive blocks: every block is read at
// the highest percentile each of them supports, and the value is the
// median over the blocks, so one slow stretch of a shared machine moves at
// most one block. `samples` is the total, `beyond` the fewest in a block.
Tail MedianTailOfBlocks(const std::vector<std::vector<double>>& sorted_blocks);

// 64-bit FNV-1a, chainable through `h`: the input and output digests.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset);

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_STATS_H_
