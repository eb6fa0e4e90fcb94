#include "graph/link_distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.h"

namespace p2p::graph {

namespace detail {

GuidedSearch::GuidedSearch(const std::vector<double>& prefix) {
  const std::size_t m = prefix.size() - 1;
  if (m + 1 > std::numeric_limits<std::uint32_t>::max()) return;  // search unguided
  const std::size_t buckets = std::max<std::size_t>(1, m / 4);
  const double mass = prefix[m];
  scale_ = static_cast<double>(buckets) / mass;
  guide_.resize(buckets + 1);
  std::size_t i = 1;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double edge = static_cast<double>(b) * mass / static_cast<double>(buckets);
    while (i <= m && prefix[i] <= edge) ++i;
    guide_[b] = static_cast<std::uint32_t>(i);
  }
  guide_[buckets] = static_cast<std::uint32_t>(m + 1);
}

std::size_t GuidedSearch::upper_bound(const std::vector<double>& prefix,
                                      std::size_t limit, double u) const noexcept {
  const double x = u * scale_;
  if (!guide_.empty() && x >= 0.0 && x < static_cast<double>(guide_.size() - 1)) {
    const auto b = static_cast<std::size_t>(x);
    const std::size_t lo = guide_[b];
    const std::size_t hi = guide_[b + 1];
    // The unbounded answer lies in [lo, hi] iff nothing before lo exceeds u
    // and (unless hi is past the table) prefix[hi] does.
    if (prefix[lo - 1] <= u && (hi == prefix.size() || prefix[hi] > u)) {
      if (lo > limit) return limit + 1;
      const auto first = prefix.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto last = prefix.begin() + static_cast<std::ptrdiff_t>(std::min(hi, limit + 1));
      return static_cast<std::size_t>(std::upper_bound(first, last, u) - prefix.begin());
    }
  }
  const auto it = std::upper_bound(prefix.begin() + 1,
                                   prefix.begin() + static_cast<std::ptrdiff_t>(limit) + 1, u);
  return static_cast<std::size_t>(it - prefix.begin());
}

std::uint64_t torus_row_part(const metric::Space& torus, metric::Distance d, double pick) {
  const std::uint64_t half = torus.side() / 2;
  const std::uint64_t lo = d > half ? d - half : 0;  // the weights before lo are 0
  const std::uint64_t hi = std::min<std::uint64_t>(d, half);
  if (lo >= hi) return hi;
  const double first = static_cast<double>(torus.axis_count(lo) * torus.axis_count(d - lo));
  if (pick < first) return lo;
  // Each interior row part weighs 4; the difference, / 4 and floor are exact.
  const double step = std::floor((pick - first) / 4.0);
  return step < static_cast<double>(hi - lo - 1) ? lo + 1 + static_cast<std::uint64_t>(step)
                                                 : hi;
}

}  // namespace detail

PowerLawLinkSampler::PowerLawLinkSampler(metric::Space space, double exponent)
    : space_(space), exponent_(exponent) {
  util::require(space_.size() >= 2, "PowerLawLinkSampler: need >= 2 grid points");
  util::require(exponent >= 0.0, "PowerLawLinkSampler: exponent must be >= 0");
  const metric::Distance diam = space_.diameter();
  prefix_.resize(diam + 1);
  prefix_[0] = 0.0;
  for (metric::Distance d = 1; d <= diam; ++d) {
    // On the torus each radius is weighted by its point count, so a radius
    // draw followed by a uniform point at that radius is the exact per-point
    // distribution.
    const double points =
        space_.one_dimensional() ? 1.0 : static_cast<double>(space_.ring_size(d));
    prefix_[d] = prefix_[d - 1] + points * std::pow(static_cast<double>(d), -exponent_);
  }
  search_ = detail::GuidedSearch(prefix_);
  if (space_.kind() == metric::Space::Kind::kRing) {
    // Total mass = 2 * prefix[half] minus the double-counted antipode.
    const metric::Distance half = space_.size() / 2;
    const double antipode_w =
        space_.size() % 2 == 0 ? std::pow(static_cast<double>(half), -exponent_) : 0.0;
    ring_total_ = 2.0 * prefix_[half] - antipode_w;
  }
}

metric::Distance PowerLawLinkSampler::sample_magnitude(util::Rng& rng,
                                                       metric::Distance limit) const {
  // Inverse CDF over weights w(d) = d^-r for d in [1, limit].
  const double u = rng.next_double() * prefix_[limit];
  return std::min(search_.upper_bound(prefix_, limit, u), limit);
}

metric::Point PowerLawLinkSampler::sample_torus_target(util::Rng& rng,
                                                       metric::Point source) const {
  // Draw the radius first (P ∝ ring_size(d) * d^-r), then a uniform point at
  // that radius.
  const std::size_t diam = prefix_.size() - 1;
  const double u = rng.next_double() * prefix_.back();
  const metric::Distance d = std::min(search_.upper_bound(prefix_, diam, u), diam);

  // Choose the row component rd of the Manhattan distance with weight
  // axis_count(rd) * axis_count(d - rd); the weights sum to ring_size(d).
  const double pick = rng.next_double() * static_cast<double>(space_.ring_size(d));
  const std::uint64_t rd = detail::torus_row_part(space_, d, pick);
  const std::uint64_t cd = d - rd;
  const auto signed_offset = [&](std::uint64_t dist) -> std::int64_t {
    if (space_.axis_count(dist) == 1) {
      return dist == 0 ? 0 : static_cast<std::int64_t>(dist);
    }
    return rng.next_bool(0.5) ? static_cast<std::int64_t>(dist)
                              : -static_cast<std::int64_t>(dist);
  };
  const auto [row, col] = space_.coords(source);
  return space_.at(static_cast<std::int64_t>(row) + signed_offset(rd),
                   static_cast<std::int64_t>(col) + signed_offset(cd));
}

metric::Point PowerLawLinkSampler::sample_target(util::Rng& rng,
                                                 metric::Point source) const {
  util::require(space_.contains(source), "sample_target: source outside space");
  if (space_.kind() == metric::Space::Kind::kTorus) {
    return sample_torus_target(rng, source);
  }
  if (space_.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<metric::Distance>(source);
    const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
    const double mass_left = prefix_[left];
    const double mass_right = prefix_[right];
    const bool go_left = rng.next_double() * (mass_left + mass_right) < mass_left;
    const metric::Distance limit = go_left ? left : right;
    const metric::Distance d = sample_magnitude(rng, limit);
    return go_left ? source - static_cast<metric::Point>(d)
                   : source + static_cast<metric::Point>(d);
  }
  // Ring: every magnitude 1..floor(n/2) exists on both sides, except that for
  // even n the antipodal magnitude n/2 names a single node. Sampling by
  // magnitude with doubled weights and halving the antipodal weight keeps the
  // per-node distribution exact.
  const metric::Distance half = space_.size() / 2;
  const bool even = space_.size() % 2 == 0;
  const double u = rng.next_double() * ring_total_;
  // The clockwise side carries full weight for each magnitude; the
  // counter-clockwise side excludes the antipode when n is even.
  const bool clockwise = u < prefix_[half];
  const metric::Distance limit = clockwise || !even ? half : half - 1;
  const double v = clockwise ? u : u - prefix_[half];
  const metric::Distance d = std::min(search_.upper_bound(prefix_, limit, v), limit);
  const auto delta = clockwise ? static_cast<std::int64_t>(d) : -static_cast<std::int64_t>(d);
  return *space_.offset(source, delta);
}

double PowerLawLinkSampler::probability(metric::Point source, metric::Point target) const {
  util::require(space_.contains(source) && space_.contains(target),
                "probability: point outside space");
  if (source == target) return 0.0;
  const double w = std::pow(static_cast<double>(space_.distance(source, target)),
                            -exponent_);
  if (space_.kind() == metric::Space::Kind::kTorus) {
    // prefix_.back() is sum_d ring_size(d) d^-r — the per-point normalizer,
    // identical for every source by translation invariance.
    return w / prefix_.back();
  }
  if (space_.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<metric::Distance>(source);
    const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
    return w / (prefix_[left] + prefix_[right]);
  }
  return w / ring_total_;
}

std::vector<std::uint64_t> base_b_full_offsets(std::uint64_t n, unsigned base) {
  util::require(base >= 2, "base_b_full_offsets: base must be >= 2");
  util::require(n >= 2, "base_b_full_offsets: n must be >= 2");
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t power = 1; power < n; power *= base) {
    for (std::uint64_t digit = 1; digit < base; ++digit) {
      const std::uint64_t off = digit * power;
      if (off < n) offsets.push_back(off);
    }
    if (power > n / base) break;  // next multiplication would overflow past n
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

std::vector<std::uint64_t> base_b_power_offsets(std::uint64_t n, unsigned base) {
  util::require(base >= 2, "base_b_power_offsets: base must be >= 2");
  util::require(n >= 2, "base_b_power_offsets: n must be >= 2");
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t power = 1; power < n; power *= base) {
    offsets.push_back(power);
    if (power > n / base) break;
  }
  return offsets;
}

}  // namespace p2p::graph
