// Long-distance link distributions.
//
// The paper's core construction draws each long-distance neighbour v of u
// with probability proportional to 1/d(u,v) — the inverse power-law
// distribution with exponent 1 (§4.3). PowerLawLinkSampler implements the
// exact distribution P ∝ d(u,v)^-r for any exponent r >= 0 over any
// metric::Space: the line and the ring (r = 1 is the paper's model) and the
// Kleinberg 2-D torus under Manhattan distance (r = 2 is the
// dimension-matched exponent of [5]). One sampler, every topology — the
// cross-topology baselines draw their links from the same machinery.
//
// The deterministic strategies of Theorems 14 and 16 use fixed offset sets
// (digits times powers of a base b); base_b_full_offsets / base_b_power_offsets
// generate those sets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metric/space.h"
#include "util/rng.h"

namespace p2p::graph {

namespace detail {

/// Inverse-CDF search over a non-decreasing prefix-sum table p[0..m] with
/// p[0] = 0 and p[m] > 0. A guide table of about m/4 buckets, equal-width in
/// mass, maps each bucket to the first index whose prefix exceeds the
/// bucket's lower edge; a draw reads its bucket's bracket and binary-searches
/// only inside it (a handful of entries on the power-law tables, where a
/// full search walks log2 m of them across a table larger than L1).
///
/// upper_bound(p, limit, u) returns exactly
/// std::upper_bound(p + 1, p + limit + 1, u) - p for every u >= 0 and
/// limit <= m. The bracket is verified against p before it is trusted, and
/// the full search runs whenever that check fails, so rounding in the bucket
/// arithmetic can cost time but never change an answer.
class GuidedSearch {
 public:
  GuidedSearch() = default;
  /// Builds the guide for `prefix`. The table is not retained: upper_bound
  /// takes it again on every call.
  explicit GuidedSearch(const std::vector<double>& prefix);

  [[nodiscard]] std::size_t upper_bound(const std::vector<double>& prefix,
                                        std::size_t limit, double u) const noexcept;

  /// Bucket count; bucket b spans masses [b, b + 1) · p[m] / buckets().
  [[nodiscard]] std::size_t buckets() const noexcept {
    return guide_.empty() ? 0 : guide_.size() - 1;
  }

 private:
  std::vector<std::uint32_t> guide_;  // buckets + 1 entries; empty = no guide
  double scale_ = 0.0;                // buckets / p[m]
};

/// The row part rd of a torus draw at Manhattan radius d, given
/// pick in [0, ring_size(d)): the first rd in [0, min(d, side/2)] at which
/// pick falls below the running sum of the weights
/// axis_count(rd) * axis_count(d - rd), or the last rd once pick reaches
/// the total. O(1): the weights are integers, so subtracting them from pick
/// one by one is exact below 2^53, and past the first non-zero weight every
/// one is 4 but the last.
[[nodiscard]] std::uint64_t torus_row_part(const metric::Space& torus, metric::Distance d,
                                           double pick);

}  // namespace detail

/// Exact sampler for P[target = v | source = u] ∝ d(u,v)^-r over a
/// metric::Space.
///
/// Build cost O(diameter), memory O(diameter) shared by all nodes of the
/// space. A draw is an inverse-CDF lookup in a prefix-sum table through
/// detail::GuidedSearch: O(1) expected for the exponents the experiments
/// use, O(log diameter) at worst. On the torus the table weights each radius
/// d by ring_size(d) — the number of points at that distance, position
/// independent by translation invariance — so a draw picks a radius first
/// and then a uniform point at that radius.
class PowerLawLinkSampler {
 public:
  /// Preconditions: space.size() >= 2, exponent >= 0.
  PowerLawLinkSampler(metric::Space space, double exponent);

  /// Draws a target position != source. Precondition: space().contains(source).
  [[nodiscard]] metric::Point sample_target(util::Rng& rng, metric::Point source) const;

  /// Exact probability that `target` is drawn for `source` (for tests).
  [[nodiscard]] double probability(metric::Point source, metric::Point target) const;

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  /// Draws a magnitude in [1, limit] with P(d) ∝ prefix weights (1-D only).
  [[nodiscard]] metric::Distance sample_magnitude(util::Rng& rng,
                                                  metric::Distance limit) const;

  [[nodiscard]] metric::Point sample_torus_target(util::Rng& rng,
                                                  metric::Point source) const;

  metric::Space space_;
  double exponent_;
  // 1-D: prefix_[d] = sum_{i=1..d} i^-r. Torus: prefix_[d] additionally
  // weights each radius by ring_size(i). prefix_[0] = 0 in both.
  std::vector<double> prefix_;
  detail::GuidedSearch search_;
  // Ring only: the per-source mass, 2 * prefix_[n/2] less the even ring's
  // antipode weight (n/2)^-r, which the doubling counts twice.
  double ring_total_ = 0.0;
};

/// Offsets {j * b^i : 1 <= j < b, 0 <= i < ceil(log_b n)} truncated to < n —
/// the Theorem 14 deterministic link set (digit elimination in base b).
/// Preconditions: base >= 2, n >= 2.
[[nodiscard]] std::vector<std::uint64_t> base_b_full_offsets(std::uint64_t n, unsigned base);

/// Offsets {b^i : 0 <= i <= floor(log_b n)} truncated to < n — the simplified
/// Theorem 16 link set. Preconditions: base >= 2, n >= 2.
[[nodiscard]] std::vector<std::uint64_t> base_b_power_offsets(std::uint64_t n, unsigned base);

}  // namespace p2p::graph
