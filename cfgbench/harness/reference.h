#ifndef CFGBENCH_HARNESS_REFERENCE_H_
#define CFGBENCH_HARNESS_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace cfgbench {

// A fixed kernel that measures how fast the host runs the tagger's kind of
// work at this moment, without calling the library: a byte-driven walk
// through a 64 KiB transition table, then a dependent chase through a
// 16 KiB next-index table, both in cache. On a shared host whose speed changes for seconds
// or minutes at a time, its time rises and falls with the workloads' own,
// while no change to the library can move it.
class HostReference {
 public:
  // The kernel's time on the sizing host (4-vCPU Xeon VM, see README) in
  // its quiet stretches. Timings are reported scaled to this speed.
  static constexpr double kNominalMs = 2.7;

  HostReference();

  // Runs the kernel once; its wall time in milliseconds.
  double TimeMs();

 private:
  std::vector<uint8_t> table_;  // 256 states x 256 bytes
  std::vector<uint8_t> input_;
  std::vector<uint32_t> next_;  // one cycle through every index
  uint32_t state_ = 0;
};

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_REFERENCE_H_
