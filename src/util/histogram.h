// Log-spaced bucket arithmetic behind telemetry::Registry's histograms:
// bucket edges, value-to-bucket mapping and quantile extraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace p2p::util {

/// Geometric bucket edges over positive integers: edges[k] is the first value
/// of bin k and the final entry is a sentinel upper edge, so bin k covers
/// [edges[k], edges[k+1]). Throws std::invalid_argument unless base > 1 and
/// max_value >= 1.
[[nodiscard]] std::vector<std::uint64_t> log_bucket_edges(double base,
                                                          std::uint64_t max_value);

/// Index of the bin containing `value` for edges from log_bucket_edges().
/// Values below edges.front() (i.e. 0) clamp to bin 0; values at or above
/// the sentinel clamp to the last bin.
[[nodiscard]] std::size_t log_bucket_index(std::span<const std::uint64_t> edges,
                                           std::uint64_t value) noexcept;

/// Interpolated quantile (q in [0,1]) over integer log bins, where
/// edges.size() == counts.size() + 1 and bin i covers [edges[i], edges[i+1]-1]
/// inclusive. Returns 0 when total == 0.
[[nodiscard]] double quantile_from_log_bins(std::span<const std::uint64_t> edges,
                                            std::span<const std::uint64_t> counts,
                                            std::uint64_t total, double q);

}  // namespace p2p::util
