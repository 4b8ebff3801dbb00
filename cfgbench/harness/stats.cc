#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace cfgbench {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

Tail TailOfSorted(const std::vector<double>& values) {
  static constexpr double kLadder[] = {99, 95, 90, 50};
  Tail tail;
  tail.samples = values.size();
  for (double p : kLadder) {
    const double v = Percentile(values, p);
    const size_t beyond = static_cast<size_t>(
        values.end() - std::upper_bound(values.begin(), values.end(), v));
    if (beyond >= 10 || p == 50) {
      tail.percentile = p;
      tail.value = v;
      tail.beyond = beyond;
      break;
    }
  }
  return tail;
}

Tail MedianTailOfBlocks(const std::vector<std::vector<double>>& sorted_blocks) {
  Tail tail;
  tail.percentile = 100;
  for (const std::vector<double>& block : sorted_blocks) {
    tail.percentile = std::min(tail.percentile, TailOfSorted(block).percentile);
    tail.samples += block.size();
  }
  std::vector<double> values;
  tail.beyond = tail.samples;
  for (const std::vector<double>& block : sorted_blocks) {
    values.push_back(Percentile(block, tail.percentile));
    const size_t beyond = static_cast<size_t>(
        block.end() -
        std::upper_bound(block.begin(), block.end(), values.back()));
    tail.beyond = std::min(tail.beyond, beyond);
  }
  tail.value = Median(values);
  return tail;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace cfgbench
