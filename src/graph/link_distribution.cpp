#include "graph/link_distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.h"

namespace p2p::graph {

namespace detail {

GuidedSearch::GuidedSearch(std::vector<double> prefix) : table_(std::move(prefix)) {
  const std::size_t m = table_.size() - 1;
  table_.resize(m + 1 + kPad, std::numeric_limits<double>::infinity());
  if (m + 1 > std::numeric_limits<std::uint32_t>::max()) return;  // search unguided
  const std::size_t buckets = std::clamp<std::size_t>(m, 1, kMaxBuckets);
  const double mass = table_[m];
  scale_ = static_cast<double>(buckets) / mass;
  guide_.resize(buckets + 1);
  std::size_t i = 1;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double edge = static_cast<double>(b) * mass / static_cast<double>(buckets);
    while (table_[i] <= edge) ++i;  // stops at the first sentinel at the latest
    guide_[b] = static_cast<std::uint32_t>(i);
  }
  guide_[buckets] = static_cast<std::uint32_t>(m + 1);
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
  std::vector<double> prefix(diam + 1);
  prefix[0] = 0.0;
  for (metric::Distance d = 1; d <= diam; ++d) {
    // On the torus each radius is weighted by its point count, so a radius
    // draw followed by a uniform point at that radius is the exact per-point
    // distribution.
    const double points =
        space_.one_dimensional() ? 1.0 : static_cast<double>(space_.ring_size(d));
    prefix[d] = prefix[d - 1] + points * std::pow(static_cast<double>(d), -exponent_);
  }
  if (space_.kind() == metric::Space::Kind::kRing) {
    // Total mass = 2 * prefix[half] minus the double-counted antipode.
    const metric::Distance half = space_.size() / 2;
    const double antipode_w =
        space_.size() % 2 == 0 ? std::pow(static_cast<double>(half), -exponent_) : 0.0;
    ring_total_ = 2.0 * prefix[half] - antipode_w;
  }
  search_ = detail::GuidedSearch(std::move(prefix));
}

metric::Point PowerLawLinkSampler::sample_line_target(util::Rng& rng,
                                                      metric::Point source) const {
  const auto left = static_cast<metric::Distance>(source);
  const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
  const double mass_left = search_[left];
  const double mass_right = search_[right];
  const bool go_left = rng.next_double() * (mass_left + mass_right) < mass_left;
  // Inverse CDF over weights w(d) = d^-r for d in [1, limit].
  const metric::Distance limit = go_left ? left : right;
  const double u = rng.next_double() * search_[limit];
  const metric::Distance d = std::min(search_.upper_bound(limit, u), limit);
  return go_left ? source - static_cast<metric::Point>(d)
                 : source + static_cast<metric::Point>(d);
}

metric::Point PowerLawLinkSampler::sample_torus_target(util::Rng& rng,
                                                       metric::Point source) const {
  // Draw the radius first (P ∝ ring_size(d) * d^-r), then a uniform point at
  // that radius.
  const std::size_t diam = search_.last();
  const double u = rng.next_double() * search_[diam];
  const metric::Distance d = std::min(search_.upper_bound(diam, u), diam);

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
  metric::Point target = 0;
  sample_targets(rng, source, &target, 1);
  return target;
}

void PowerLawLinkSampler::sample_targets(util::Rng& rng, metric::Point source,
                                         metric::Point* out, std::size_t count) const {
  util::require(space_.contains(source), "PowerLawLinkSampler: source outside space");
  // One loop per kind, so the kind is tested once per node, not per draw.
  switch (space_.kind()) {
    case metric::Space::Kind::kRing: {
      // Every magnitude 1..floor(n/2) exists on both sides, except that for
      // even n the antipodal magnitude n/2 names a single node. Sampling by
      // magnitude with doubled weights and halving the antipodal weight
      // keeps the per-node distribution exact.
      const metric::Distance half = space_.size() / 2;
      const metric::Distance even = space_.size() % 2 == 0 ? 1 : 0;
      const double mass_cw = search_[half];
      for (std::size_t k = 0; k < count; ++k) {
        const double u = rng.next_double() * ring_total_;
        // The clockwise side carries full weight for each magnitude; the
        // counter-clockwise side excludes the antipode when n is even. The
        // side is a fair coin, which a branch would mispredict half the
        // time, so it enters as 0 or 1: u - mass_cw * 0 is u exactly.
        const auto ccw = static_cast<metric::Distance>(u >= mass_cw);
        const metric::Distance limit = half - (ccw & even);
        const double v = u - mass_cw * static_cast<double>(ccw);
        const auto d = static_cast<std::int64_t>(std::min(search_.upper_bound(limit, v), limit));
        out[k] = *space_.offset(source, d - 2 * d * static_cast<std::int64_t>(ccw));
      }
      return;
    }
    case metric::Space::Kind::kLine:
      for (std::size_t k = 0; k < count; ++k) out[k] = sample_line_target(rng, source);
      return;
    case metric::Space::Kind::kTorus:
      for (std::size_t k = 0; k < count; ++k) out[k] = sample_torus_target(rng, source);
      return;
  }
}

double PowerLawLinkSampler::probability(metric::Point source, metric::Point target) const {
  util::require(space_.contains(source) && space_.contains(target),
                "probability: point outside space");
  if (source == target) return 0.0;
  const double w = std::pow(static_cast<double>(space_.distance(source, target)),
                            -exponent_);
  if (space_.kind() == metric::Space::Kind::kTorus) {
    // The last prefix is sum_d ring_size(d) d^-r — the per-point normalizer,
    // identical for every source by translation invariance.
    return w / search_[search_.last()];
  }
  if (space_.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<metric::Distance>(source);
    const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
    return w / (search_[left] + search_[right]);
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
