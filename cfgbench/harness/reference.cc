#include "harness/reference.h"

#include <chrono>
#include <utility>

namespace cfgbench {

namespace {

constexpr int kWalkPasses = 8;         // 512 Ki table steps
constexpr uint32_t kChaseSteps = 200000;

// xorshift64; the library's generator is not used, so that no library
// change can alter the kernel.
uint64_t Next(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

}  // namespace

HostReference::HostReference()
    : table_(1 << 16), input_(1 << 16), next_(1 << 12) {
  uint64_t x = 0x5eed;
  for (uint8_t& v : table_) v = static_cast<uint8_t>(Next(&x));
  for (uint8_t& v : input_) v = static_cast<uint8_t>(Next(&x));
  // Sattolo's shuffle: a single cycle through the whole table.
  for (uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  for (size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[Next(&x) % i]);
  }
}

double HostReference::TimeMs() {
  // Untimed: bring the tables back into cache after the workload's ops, so
  // the time does not depend on how much of the cache the library uses.
  uint32_t touch = 0;
  for (size_t i = 0; i < table_.size(); i += 64) touch += table_[i];
  for (size_t i = 0; i < input_.size(); i += 64) touch += input_[i];
  for (size_t i = 0; i < next_.size(); i += 16) touch += next_[i];
  const auto t0 = std::chrono::steady_clock::now();
  uint32_t s = (state_ + touch) & 0xff;
  for (int pass = 0; pass < kWalkPasses; ++pass) {
    for (uint8_t c : input_) s = table_[(s << 8) | c];
  }
  uint32_t p = s;
  for (uint32_t k = 0; k < kChaseSteps; ++k) p = next_[p];
  // Carried into the next call, so neither loop can be elided.
  state_ = p & 0xff;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace cfgbench
