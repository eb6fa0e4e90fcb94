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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/rng.h"

namespace p2p::graph {

class PowerLawLinkSampler;

namespace detail {

/// Inverse-CDF search over a non-decreasing prefix-sum table p[0..m] with
/// p[0] = 0 and p[m] > 0, which it owns. A guide table of m buckets (at
/// most kMaxBuckets), equal-width in mass, maps each bucket to the first
/// index whose prefix exceeds the bucket's lower edge; a draw reads its
/// bucket's bracket and searches only inside it, where a full search walks
/// log2 m entries across a table larger than L1. A bracket of at most kPad
/// entries, the common case on the power-law tables, is resolved by counting
/// the entries <= u among kPad loaded at once: the table ends in kPad +inf
/// sentinels, so the count needs no mask and no branch. Wider brackets
/// binary-search.
///
/// The resolution was measured on ring draws at r = 1 (one core), through
/// the per-node sample_targets loop: at 2^19 and 2^21 nodes m buckets beat
/// m/4 (36.5 against 41.4 ns, 42.5 against 45.0), but at 10^7 nodes m
/// buckets make a 20 MB guide and lost (100 against 80–86 ns for m/4's
/// 5 MB), hence the cap. PowerLawLinkSampler::sample_ring_block reads the
/// same guide and table eight draws at a time.
///
/// upper_bound(limit, u) returns exactly
/// std::upper_bound(p + 1, p + limit + 1, u) - p for every u >= 0 and
/// limit <= m. The bracket is verified against p before it is trusted, and
/// the full search runs whenever that check fails, so rounding in the bucket
/// arithmetic can cost time but never change an answer.
class GuidedSearch {
 public:
  /// Sentinel entries past p[m]; also the widest bracket that is counted.
  static constexpr std::size_t kPad = 8;
  /// Most guide buckets: a 4 MiB guide.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  GuidedSearch() = default;
  /// Takes `prefix` as its table and builds the guide over it.
  explicit GuidedSearch(std::vector<double> prefix);

  [[nodiscard]] std::size_t upper_bound(std::size_t limit, double u) const noexcept;

  /// p[i]. Precondition: i <= last().
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return table_[i]; }
  /// m, the table's last index.
  [[nodiscard]] std::size_t last() const noexcept { return table_.size() - 1 - kPad; }

  /// Bucket count; bucket b spans masses [b, b + 1) · p[m] / buckets().
  [[nodiscard]] std::size_t buckets() const noexcept {
    return guide_.empty() ? 0 : guide_.size() - 1;
  }

 private:
  friend class graph::PowerLawLinkSampler;  // its ring kernel reads the tables

  std::vector<double> table_;         // p[0..m], then kPad +inf
  std::vector<std::uint32_t> guide_;  // buckets + 1 entries; empty = no guide
  double scale_ = 0.0;                // buckets / p[m]
};

inline std::size_t GuidedSearch::upper_bound(std::size_t limit, double u) const noexcept {
  const double* const p = table_.data();
  const double x = u * scale_;
  if (x >= 0.0 && x < static_cast<double>(buckets())) {
    const auto b = static_cast<std::size_t>(x);
    const std::size_t lo = guide_[b];
    const std::size_t hi = guide_[b + 1];
    // The unbounded answer lies in [lo, hi] iff nothing before lo exceeds u
    // and p[hi] (a sentinel when hi = m + 1) does. The bounded one is that
    // answer capped at limit + 1.
    if (p[lo - 1] <= u && p[hi] > u) {
      std::size_t answer = lo;
      if (hi - lo <= kPad) {
        // Every entry from hi on, sentinels included, exceeds u.
        for (std::size_t j = 0; j < kPad; ++j) answer += static_cast<std::size_t>(p[lo + j] <= u);
      } else {
        answer = static_cast<std::size_t>(std::upper_bound(p + lo, p + hi, u) - p);
      }
      return std::min(answer, limit + 1);
    }
  }
  return static_cast<std::size_t>(std::upper_bound(p + 1, p + limit + 1, u) - p);
}

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
/// space: one prefix-sum table, owned by its detail::GuidedSearch. A draw is
/// an inverse-CDF lookup in that table: O(1) expected for the exponents the
/// experiments use, O(log diameter) at worst. On the torus the table weights
/// each radius d by ring_size(d) — the number of points at that distance,
/// position independent by translation invariance — so a draw picks a radius
/// first and then a uniform point at that radius. sample_targets draws a
/// node's whole set in one loop, the form the overlay builders use;
/// sample_ring_block, an AVX-512 kernel, draws the sets of eight ring nodes
/// at once where the CPU has AVX-512F/DQ/VL (checked at run time, with no
/// option to turn it off), and the builders use it on fully populated rings.
class PowerLawLinkSampler {
 public:
  /// Sources per sample_ring_block call.
  static constexpr std::size_t kBlockLanes = 8;

  /// Preconditions: space.size() >= 2, exponent >= 0.
  PowerLawLinkSampler(metric::Space space, double exponent);

  /// Draws a target position != source. Precondition: space().contains(source).
  [[nodiscard]] metric::Point sample_target(util::Rng& rng, metric::Point source) const;

  /// Writes `count` independent draws for `source` to out[0..count): the
  /// same targets, from the same rng calls, as `count` calls of
  /// sample_target. Precondition: space().contains(source).
  void sample_targets(util::Rng& rng, metric::Point source, metric::Point* out,
                      std::size_t count) const;

  /// sample_targets for kBlockLanes ring sources at once, as the builders
  /// write a fully populated ring's long-link table. Lane i draws `count`
  /// targets for sources[i] from rngs[i], making the same rng calls as
  /// sample_targets(rngs[i], sources[i], ...), and writes them to
  /// out[i * count, (i + 1) * count) as node ids (a node's id is its
  /// position), with a target equal to its source written as kInvalidNode.
  /// The lanes run in AVX-512 registers and count GuidedSearch::kPad table
  /// entries from the guide's first index; a lane whose answer the count
  /// cannot prove resolves that draw with the scalar
  /// GuidedSearch::upper_bound, so every target equals the per-node loop's. Returns false, drawing and writing nothing, when the
  /// kernel cannot run: not a ring, a ring too large for node ids, an
  /// unguided table, or a CPU without AVX-512F/DQ/VL. Precondition: every
  /// source lies in space() (throws std::invalid_argument otherwise).
  [[nodiscard]] bool sample_ring_block(util::Rng* rngs, const metric::Point* sources,
                                       std::size_t count, NodeId* out) const;

  /// Exact probability that `target` is drawn for `source` (for tests).
  [[nodiscard]] double probability(metric::Point source, metric::Point target) const;

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  [[nodiscard]] metric::Point sample_line_target(util::Rng& rng, metric::Point source) const;
  [[nodiscard]] metric::Point sample_torus_target(util::Rng& rng,
                                                  metric::Point source) const;

  metric::Space space_;
  double exponent_;
  // 1-D: p[d] = sum_{i=1..d} i^-r. Torus: p[d] additionally weights each
  // radius by ring_size(i). p[0] = 0 in both.
  detail::GuidedSearch search_;
  // Ring only: the per-source mass, 2 * p[n/2] less the even ring's
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
