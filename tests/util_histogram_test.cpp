// Unit tests for util/histogram.h: the log-spaced bucket arithmetic behind
// telemetry::Registry's histograms.
#include "util/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace p2p::util {
namespace {

/// Per-bin counts of `values` (each with weight `weight`) over `edges`.
std::vector<std::uint64_t> bin_counts(const std::vector<std::uint64_t>& edges,
                                      std::initializer_list<std::uint64_t> values,
                                      std::uint64_t weight = 1) {
  std::vector<std::uint64_t> counts(edges.size() - 1, 0);
  for (const std::uint64_t v : values) counts[log_bucket_index(edges, v)] += weight;
  return counts;
}

TEST(LogBuckets, EdgesArePowersOfTheBase) {
  // Bins: [1,1], [2,3], [4,7], [8,15], [16,31], [32,63], [64,127].
  const auto edges = log_bucket_edges(2.0, 64);
  EXPECT_EQ(edges, (std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32, 64, 128}));
  EXPECT_THROW((void)log_bucket_edges(1.0, 8), std::invalid_argument);
  EXPECT_THROW((void)log_bucket_edges(2.0, 0), std::invalid_argument);
}

TEST(LogBuckets, ValuesLandInTheirBinsAndOutliersClamp) {
  const auto edges = log_bucket_edges(2.0, 64);
  EXPECT_EQ(log_bucket_index(edges, 1), 0u);
  EXPECT_EQ(log_bucket_index(edges, 2), 1u);
  EXPECT_EQ(log_bucket_index(edges, 3), 1u);
  EXPECT_EQ(log_bucket_index(edges, 63), 5u);
  EXPECT_EQ(log_bucket_index(edges, 64), 6u);
  // 0 clamps into the first bin, anything past the sentinel into the last.
  EXPECT_EQ(log_bucket_index(edges, 0), 0u);
  EXPECT_EQ(log_bucket_index(edges, 128), edges.size() - 2);
  EXPECT_EQ(log_bucket_index(edges, 1'000'000), edges.size() - 2);
}

TEST(QuantileFromLogBins, QuantilesBracketTrueValues) {
  // 1..1000 uniformly: the interpolated quantile must stay within the true
  // value's bin (a factor-of-base window).
  const auto edges = log_bucket_edges(2.0, 1024);
  std::vector<std::uint64_t> counts(edges.size() - 1, 0);
  for (std::uint64_t v = 1; v <= 1000; ++v) ++counts[log_bucket_index(edges, v)];
  const double p50 = quantile_from_log_bins(edges, counts, 1000, 0.50);
  const double p99 = quantile_from_log_bins(edges, counts, 1000, 0.99);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  const std::vector<std::uint64_t> empty(edges.size() - 1, 0);
  EXPECT_DOUBLE_EQ(quantile_from_log_bins(edges, empty, 0, 0.5), 0.0);
}

TEST(QuantileFromLogBins, SingleValueLandsInItsBin) {
  const auto edges = log_bucket_edges(2.0, 1024);
  const auto counts = bin_counts(edges, {37}, 1000);
  // All mass in [32, 63]: every quantile must stay inside that bin.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double x = quantile_from_log_bins(edges, counts, 1000, q);
    EXPECT_GE(x, 32.0) << q;
    EXPECT_LE(x, 63.0) << q;
  }
}

}  // namespace
}  // namespace p2p::util
