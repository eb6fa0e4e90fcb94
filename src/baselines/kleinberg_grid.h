// Kleinberg small-world grid baseline (§2, [5]) — reference implementation.
//
// Nodes at every point of a 2-D torus, each connected to its four lattice
// neighbours plus q long-range links drawn with P ∝ d^-r (Manhattan
// distance). Greedy routing forwards to the neighbour closest to the
// target. Sweeping r reproduces Kleinberg's classic result that r = 2 (the
// grid dimension) is the unique efficient exponent — the paper's motivation
// for using exponent 1 on a 1-D space.
//
// The torus is a metric::Space of kind kTorus, read through its lattice
// helpers (coords, at). The production path for this topology is
// graph::build_kleinberg_overlay: a frozen CSR overlay over the same Space,
// routed through the shared core::Router / route_batch hot path, with
// FailureView / churn support for free. This class survives as the
// independent reference the CSR path is pinned against —
// tests/torus_overlay_test.cpp checks hop-for-hop equivalence on identical
// link sets — and is not used by any bench or example.
#pragma once

#include <cstdint>
#include <vector>

#include "metric/space.h"
#include "util/rng.h"

namespace p2p::baselines {

/// A fully populated Kleinberg torus with stored long-range links.
class KleinbergGrid {
 public:
  /// side × side torus, `long_links` long-range links per node, exponent r.
  /// Preconditions: side >= 2, exponent >= 0.
  KleinbergGrid(std::uint32_t side, std::size_t long_links, double exponent,
                util::Rng& rng);

  /// A grid over an explicit per-node long-link table (one vector per torus
  /// point, entries are flattened positions) — lets tests pin this reference
  /// against a CSR overlay built on the *same* sampled links.
  /// Preconditions: side >= 2, long_links.size() == side², entries in range.
  KleinbergGrid(std::uint32_t side, std::vector<std::vector<metric::Point>> long_links);

  [[nodiscard]] const metric::Space& torus() const noexcept { return torus_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(torus_.size());
  }
  [[nodiscard]] const std::vector<metric::Point>& long_links_of(std::size_t u) const {
    return long_links_.at(u);
  }

  struct Result {
    bool ok = false;
    std::size_t hops = 0;
  };

  /// Greedy route src -> dst. `dead` (by node index) marks failed nodes to
  /// skip; routing fails when no live neighbour is strictly closer.
  [[nodiscard]] Result route(metric::Point src, metric::Point dst,
                             const std::vector<std::uint8_t>* dead = nullptr,
                             std::size_t ttl = 0) const;

 private:
  metric::Space torus_;
  std::vector<std::vector<metric::Point>> long_links_;
};

}  // namespace p2p::baselines
