#include "harness/registry.h"

#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace cfgbench {

namespace {

bool InFamily(std::string_view series, std::string_view family) {
  return series.substr(0, family.size()) == family &&
         (series.size() == family.size() || series[family.size()] == '{');
}

}  // namespace

RegistrySnapshot SnapshotRegistry() {
  RegistrySnapshot out;
  std::istringstream text(
      cfgtag::obs::MetricsRegistry::Default().ExpositionText());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    if (series.find("_bucket{") != std::string::npos) continue;
    out[series] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

std::optional<double> FamilyDelta(const RegistrySnapshot& before,
                                  const RegistrySnapshot& after,
                                  std::string_view family) {
  std::optional<double> delta;
  for (const auto& [series, value] : after) {
    if (!InFamily(series, family)) continue;
    const auto it = before.find(series);
    delta = delta.value_or(0) + value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

std::string ActiveSimdTier(const RegistrySnapshot& snapshot) {
  static constexpr std::string_view kPrefix = "cfgtag_simd_dispatch{isa=\"";
  for (const auto& [series, value] : snapshot) {
    if (series.rfind(kPrefix, 0) != 0 || value != 1) continue;
    const size_t end = series.find('"', kPrefix.size());
    return series.substr(kPrefix.size(), end - kPrefix.size());
  }
  return "not dispatched";
}

}  // namespace cfgbench
