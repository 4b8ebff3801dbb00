#ifndef CFGBENCH_HARNESS_REGISTRY_H_
#define CFGBENCH_HARNESS_REGISTRY_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace cfgbench {

// Every counter and gauge sample, and every histogram's _sum and _count,
// of the process-wide obs::MetricsRegistry, keyed by exposed series name
// (labels included). Read from the exposition text, so a family the
// library never registered is simply missing — reported as absent, not 0.
using RegistrySnapshot = std::map<std::string, double>;
RegistrySnapshot SnapshotRegistry();

// Sum over the series of `family` (the bare name, or the name followed by
// a label set) of after - before. Empty when `after` has no such series.
std::optional<double> FamilyDelta(const RegistrySnapshot& before,
                                  const RegistrySnapshot& after,
                                  std::string_view family);

// The isa label of the cfgtag_simd_dispatch info gauge whose value is 1,
// or "not dispatched" while no engine has asked for its kernels.
std::string ActiveSimdTier(const RegistrySnapshot& snapshot);

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_REGISTRY_H_
