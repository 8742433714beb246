// Statistics of a run: per-group samples combined across groups by
// geometric mean, so a small pattern's change is not swamped by a large
// one. The median, mean and geomean are the library's own (util/stats.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using sympiler::geomean;
using sympiler::mean;
using sympiler::median;

/// Smallest sample (0 for an empty sample).
[[nodiscard]] inline double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank quantile, q in [0, 1] (0 for an empty sample).
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Geomean over groups of a per-group statistic; groups without samples
/// are skipped.
template <class Stat>
[[nodiscard]] double combine(const std::vector<std::vector<double>>& groups,
                             Stat stat) {
  std::vector<double> per_group;
  for (const auto& g : groups)
    if (!g.empty()) per_group.push_back(stat(g));
  return geomean(per_group);
}

}  // namespace perfbench
