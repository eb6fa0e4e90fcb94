// The Kleinberg torus on the shared CSR hot path: build_kleinberg_overlay
// pinned hop-for-hop against the legacy baselines::KleinbergGrid reference
// on identical link sets, and failure-view behaviour on a 2-D metric.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "baselines/kleinberg_grid.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "metric/space.h"
#include "util/rng.h"

namespace p2p {
namespace {

using graph::NodeId;

/// The per-node long-link table of a CSR overlay, as the flattened positions
/// the legacy reference stores — the bridge that pins both implementations
/// to the *same* sampled links.
std::vector<std::vector<metric::Point>> long_link_table(const graph::OverlayGraph& g) {
  std::vector<std::vector<metric::Point>> table(g.size());
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.long_neighbors(u)) {
      table[u].push_back(static_cast<metric::Point>(v));
    }
  }
  return table;
}

TEST(TorusOverlay, BuilderEmitsFourLatticeLinksPlusLongLinks) {
  util::Rng rng(21);
  const std::uint32_t side = 16;
  const std::size_t q = 3;
  const auto g = graph::build_kleinberg_overlay(side, q, 2.0, rng);
  const metric::Space torus = metric::Space::torus(side);
  ASSERT_EQ(g.size(), torus.size());
  EXPECT_TRUE(g.dense());
  EXPECT_EQ(g.space(), torus);
  for (NodeId u = 0; u < g.size(); ++u) {
    ASSERT_EQ(g.short_degree(u), 4u);
    EXPECT_EQ(g.out_degree(u), 4u + q);
    // The four short links are the wrapped lattice neighbours.
    const auto neigh = g.neighbors(u);
    const auto [r, c] = torus.coords(static_cast<metric::Point>(u));
    const auto rr = static_cast<std::int64_t>(r);
    const auto cc = static_cast<std::int64_t>(c);
    EXPECT_EQ(neigh[0], static_cast<NodeId>(torus.at(rr + 1, cc)));
    EXPECT_EQ(neigh[1], static_cast<NodeId>(torus.at(rr - 1, cc)));
    EXPECT_EQ(neigh[2], static_cast<NodeId>(torus.at(rr, cc + 1)));
    EXPECT_EQ(neigh[3], static_cast<NodeId>(torus.at(rr, cc - 1)));
    // Long links land at distance >= 1 (never a self-link).
    for (const NodeId v : g.long_neighbors(u)) {
      EXPECT_NE(v, u);
      EXPECT_TRUE(torus.contains(static_cast<metric::Point>(v)));
    }
  }
}

TEST(TorusOverlay, PooledBuildMatchesSerial) {
  util::ThreadPool pool(4);
  util::Rng serial_rng(22);
  util::Rng pooled_rng(22);
  const auto serial = graph::build_kleinberg_overlay(24, 2, 2.0, serial_rng);
  const auto pooled = graph::build_kleinberg_overlay(24, 2, 2.0, pooled_rng, pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (NodeId u = 0; u < serial.size(); ++u) {
    const auto a = serial.neighbors(u);
    const auto b = pooled.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << "u=" << u;
  }
}

/// CSR greedy routing vs the legacy reference, hop for hop, on the same
/// links, healthy and under identical dead sets.
void expect_bit_equivalent(std::uint32_t side, std::size_t q, double p_dead,
                           std::uint64_t seed) {
  util::Rng build_rng(seed);
  const auto g = graph::build_kleinberg_overlay(side, q, 2.0, build_rng);
  const baselines::KleinbergGrid legacy(side, long_link_table(g));

  // Same dead set on both sides: a bool per node and the matching view.
  util::Rng kill(seed + 1);
  std::vector<std::uint8_t> dead(g.size(), 0);
  auto view = failure::FailureView::all_alive(g);
  if (p_dead > 0.0) {
    for (NodeId u = 0; u < g.size(); ++u) {
      if (kill.next_bool(p_dead)) {
        dead[u] = 1;
        view.kill_node(u);
      }
    }
  }

  const std::size_t ttl = static_cast<std::size_t>(4) * side + 64;
  core::RouterConfig cfg;
  cfg.ttl = ttl;
  const core::Router router(g, view, cfg);

  util::Rng pick(seed + 2);
  util::Rng route_rng(seed + 3);  // terminate policy: never actually drawn
  int live_pairs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto src = static_cast<NodeId>(pick.next_below(g.size()));
    const auto dst = static_cast<NodeId>(pick.next_below(g.size()));
    if (dead[src] != 0 || dead[dst] != 0) continue;
    ++live_pairs;
    const auto ours = router.route(src, static_cast<metric::Point>(dst), route_rng);
    const auto ref = legacy.route(static_cast<metric::Point>(src),
                                  static_cast<metric::Point>(dst),
                                  p_dead > 0.0 ? &dead : nullptr, ttl);
    ASSERT_EQ(ours.delivered(), ref.ok) << "src=" << src << " dst=" << dst;
    ASSERT_EQ(ours.hops, ref.hops) << "src=" << src << " dst=" << dst;
  }
  ASSERT_GT(live_pairs, 100);  // the comparison actually ran
}

TEST(TorusOverlay, CsrGreedyMatchesLegacyReferenceHealthy) {
  expect_bit_equivalent(32, 3, 0.0, 101);
}

TEST(TorusOverlay, CsrGreedyMatchesLegacyReferenceUnderFailures) {
  expect_bit_equivalent(24, 3, 0.3, 202);
}

TEST(TorusOverlay, CsrGreedyMatchesLegacyOnBareLattice) {
  expect_bit_equivalent(12, 0, 0.0, 303);
}

TEST(TorusOverlay, MinimumSideWiresDistinctLatticeLinksOnly) {
  // At side 2 the ±1 lattice neighbours coincide; the builder must not emit
  // duplicate slots (a slot-keyed link kill would otherwise leave the twin
  // slot alive). Each node has exactly two distinct lattice neighbours.
  util::Rng rng(71);
  const auto g = graph::build_kleinberg_overlay(2, 1, 2.0, rng);
  const metric::Space torus = metric::Space::torus(2);
  for (NodeId u = 0; u < g.size(); ++u) {
    ASSERT_EQ(g.short_degree(u), 2u);
    const auto neigh = g.neighbors(u);
    const auto [r, c] = torus.coords(static_cast<metric::Point>(u));
    EXPECT_EQ(neigh[0], static_cast<NodeId>(
                            torus.at(static_cast<std::int64_t>(r) + 1, c)));
    EXPECT_EQ(neigh[1], static_cast<NodeId>(
                            torus.at(r, static_cast<std::int64_t>(c) + 1)));
    EXPECT_NE(neigh[0], neigh[1]);
  }
  // Killing a lattice slot really severs the hop (no live twin slot).
  auto view = failure::FailureView::all_alive(g);
  view.kill_link(0, 0);
  EXPECT_FALSE(view.hop_usable(0, 0));
  // And routing still matches the legacy reference at this size.
  expect_bit_equivalent(2, 2, 0.0, 404);
}

TEST(TorusOverlay, FailureViewKillReviveSmoke) {
  util::Rng rng(41);
  const auto g = graph::build_kleinberg_overlay(16, 2, 2.0, rng);
  auto view = failure::FailureView::all_alive(g);
  core::RouterConfig cfg;
  cfg.record_path = true;
  const core::Router router(g, view, cfg);

  const metric::Space torus = metric::Space::torus(16);
  const auto src = static_cast<NodeId>(torus.at(0, 0));
  const auto dst = static_cast<metric::Point>(torus.at(8, 8));
  const auto baseline = router.route(src, dst, rng);
  ASSERT_TRUE(baseline.delivered());
  ASSERT_GE(baseline.path.size(), 3u);  // at least one interior node

  // Kill an interior node of the healthy path; the route must now either
  // fail or avoid it. Reviving restores the exact original path.
  const NodeId blocked = baseline.path[baseline.path.size() / 2];
  view.kill_node(blocked);
  const auto detour = router.route(src, dst, rng);
  if (detour.delivered()) {
    for (const NodeId v : detour.path) EXPECT_NE(v, blocked);
  }
  view.revive_node(blocked);
  const auto healed = router.route(src, dst, rng);
  ASSERT_TRUE(healed.delivered());
  EXPECT_EQ(healed.path, baseline.path);
  EXPECT_EQ(healed.hops, baseline.hops);
}

TEST(TorusOverlay, OneSidedRoutingRejectedOnTorus) {
  util::Rng rng(51);
  const auto g = graph::build_kleinberg_overlay(8, 1, 2.0, rng);
  const auto view = failure::FailureView::all_alive(g);
  core::RouterConfig cfg;
  cfg.sidedness = core::Sidedness::kOneSided;
  EXPECT_THROW(core::Router(g, view, cfg), std::invalid_argument);
  // Two-sided construction is fine.
  EXPECT_NO_THROW(core::Router(g, view));
}

TEST(TorusOverlay, OneDimensionalShortLinkWiringRejectedOnTorus) {
  graph::GraphBuilder builder{metric::Space::torus(4)};
  EXPECT_THROW(builder.wire_short_links(), std::invalid_argument);
  EXPECT_EQ(builder.freeze().link_count(), 0u);  // refused before any link
}

TEST(TorusOverlay, BuildRejectsBadParameters) {
  util::Rng rng(61);
  EXPECT_THROW(static_cast<void>(graph::build_kleinberg_overlay(1, 1, 2.0, rng)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(graph::build_kleinberg_overlay(8, 1, -1.0, rng)),
               std::invalid_argument);
}

}  // namespace
}  // namespace p2p
