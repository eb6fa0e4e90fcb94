#include "util/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace p2p::util {

std::vector<std::uint64_t> log_bucket_edges(double base, std::uint64_t max_value) {
  require(base > 1.0, "log_bucket_edges: base must be > 1");
  require(max_value >= 1, "log_bucket_edges: max_value must be >= 1");
  std::vector<std::uint64_t> edges;
  std::uint64_t edge = 1;
  while (edge <= max_value) {
    edges.push_back(edge);
    const auto next = static_cast<std::uint64_t>(std::ceil(static_cast<double>(edge) * base));
    edge = next > edge ? next : edge + 1;
  }
  edges.push_back(edge);  // sentinel upper edge
  return edges;
}

std::size_t log_bucket_index(std::span<const std::uint64_t> edges,
                             std::uint64_t value) noexcept {
  if (value == 0) value = 1;
  if (value >= edges.back()) return edges.size() - 2;
  // Binary search for the last edge <= value.
  std::size_t lo = 0, hi = edges.size() - 1;
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (edges[mid] <= value)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

double quantile_from_log_bins(std::span<const std::uint64_t> edges,
                              std::span<const std::uint64_t> counts,
                              std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double first = static_cast<double>(cum);
    cum += counts[i];
    if (rank < static_cast<double>(cum)) {
      const double lo = static_cast<double>(edges[i]);
      const double hi = static_cast<double>(edges[i + 1] - 1);
      const double frac = (rank - first) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
  }
  return static_cast<double>(edges.back() - 1);
}

}  // namespace p2p::util
