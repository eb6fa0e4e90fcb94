#include "baselines/kleinberg_grid.h"

#include <utility>

#include "graph/link_distribution.h"
#include "util/require.h"

namespace p2p::baselines {

KleinbergGrid::KleinbergGrid(std::uint32_t side, std::size_t long_links,
                             double exponent, util::Rng& rng)
    : torus_(metric::Space::torus(side)) {
  util::require(side >= 2, "KleinbergGrid: side must be >= 2");
  const graph::PowerLawLinkSampler sampler(torus_, exponent);
  long_links_.resize(size());
  for (std::size_t u = 0; u < size(); ++u) {
    long_links_[u].reserve(long_links);
    for (std::size_t k = 0; k < long_links; ++k) {
      long_links_[u].push_back(
          sampler.sample_target(rng, static_cast<metric::Point>(u)));
    }
  }
}

KleinbergGrid::KleinbergGrid(std::uint32_t side,
                             std::vector<std::vector<metric::Point>> long_links)
    : torus_(metric::Space::torus(side)), long_links_(std::move(long_links)) {
  util::require(side >= 2, "KleinbergGrid: side must be >= 2");
  util::require(long_links_.size() == size(),
                "KleinbergGrid: need one long-link set per torus point");
  for (const auto& links : long_links_) {
    for (const metric::Point v : links) {
      util::require(torus_.contains(v), "KleinbergGrid: link outside the torus");
    }
  }
}

KleinbergGrid::Result KleinbergGrid::route(metric::Point src, metric::Point dst,
                                           const std::vector<std::uint8_t>* dead,
                                           std::size_t ttl) const {
  util::require(torus_.contains(src) && torus_.contains(dst),
                "KleinbergGrid::route: point outside the torus");
  const auto alive = [&](metric::Point v) {
    return dead == nullptr || (*dead)[static_cast<std::size_t>(v)] == 0;
  };
  if (ttl == 0) ttl = static_cast<std::size_t>(4) * torus_.side() + 64;

  Result result;
  metric::Point current = src;
  while (ttl-- > 0) {
    if (current == dst) {
      result.ok = true;
      return result;
    }
    const metric::Distance here = torus_.distance(current, dst);
    metric::Point best = -1;
    metric::Distance best_d = here;
    const auto consider = [&](metric::Point v) {
      if (v == current || !alive(v)) return;
      const metric::Distance d = torus_.distance(v, dst);
      if (d < best_d || (d == best_d && best >= 0 && v < best)) {
        best = v;
        best_d = d;
      }
    };
    const auto [row, col] = torus_.coords(current);
    const auto r = static_cast<std::int64_t>(row);
    const auto c = static_cast<std::int64_t>(col);
    consider(torus_.at(r + 1, c));
    consider(torus_.at(r - 1, c));
    consider(torus_.at(r, c + 1));
    consider(torus_.at(r, c - 1));
    for (const metric::Point v : long_links_[static_cast<std::size_t>(current)]) {
      consider(v);
    }
    if (best < 0) return result;  // stuck
    current = best;
    ++result.hops;
  }
  return result;  // ttl exhausted
}

}  // namespace p2p::baselines
