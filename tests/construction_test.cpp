// Unit + statistical tests for core/construction.h — the §5 heuristic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/construction.h"
#include "util/harmonic.h"
#include "util/rng.h"

namespace p2p::core {
namespace {

using metric::Point;
using metric::Space;

ConstructionConfig config(std::size_t links,
                          ReplacePolicy policy = ReplacePolicy::kPowerLaw) {
  ConstructionConfig cfg;
  cfg.long_links = links;
  cfg.replace_policy = policy;
  return cfg;
}

/// Joins every grid position in a random order.
DynamicOverlay build_full(std::uint64_t n, std::size_t links, std::uint64_t seed,
                          ReplacePolicy policy = ReplacePolicy::kPowerLaw) {
  DynamicOverlay overlay(Space::ring(n), config(links, policy));
  util::Rng rng(seed);
  std::vector<Point> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const Point p : order) overlay.join(p, rng);
  return overlay;
}

TEST(DynamicOverlay, StartsEmpty) {
  DynamicOverlay overlay(Space::ring(16), config(2));
  EXPECT_EQ(overlay.node_count(), 0u);
  EXPECT_FALSE(overlay.occupied(3));
}

TEST(DynamicOverlay, FirstJoinHasNoLinks) {
  DynamicOverlay overlay(Space::ring(16), config(2));
  util::Rng rng(1);
  overlay.join(5, rng);
  EXPECT_EQ(overlay.node_count(), 1u);
  EXPECT_TRUE(overlay.occupied(5));
  EXPECT_TRUE(overlay.long_links_of(5).empty());
}

TEST(DynamicOverlay, JoinCreatesDesignOutDegree) {
  DynamicOverlay overlay(Space::ring(64), config(3));
  util::Rng rng(2);
  overlay.join(0, rng);
  overlay.join(32, rng);
  overlay.join(16, rng);
  // Every later joiner gets exactly ℓ outgoing long links.
  EXPECT_EQ(overlay.long_links_of(16).size(), 3u);
  // All link targets are occupied members.
  for (const Point t : overlay.long_links_of(16)) {
    EXPECT_TRUE(overlay.occupied(t));
    EXPECT_NE(t, 16);
  }
}

TEST(DynamicOverlay, JoinRejectsOccupiedOrOutside) {
  DynamicOverlay overlay(Space::ring(16), config(1));
  util::Rng rng(3);
  overlay.join(5, rng);
  EXPECT_THROW(overlay.join(5, rng), std::invalid_argument);
  EXPECT_THROW(overlay.join(16, rng), std::invalid_argument);
  EXPECT_THROW(overlay.join(-1, rng), std::invalid_argument);
}

TEST(DynamicOverlay, NearestMemberAndSuccessors) {
  DynamicOverlay overlay(Space::ring(100), config(1));
  util::Rng rng(4);
  for (const Point p : {10, 50, 90}) overlay.join(p, rng);
  EXPECT_EQ(overlay.nearest_member(12, -1), 10);
  EXPECT_EQ(overlay.nearest_member(95, -1), 90);
  EXPECT_EQ(overlay.nearest_member(99, -1), 90);  // 90 is 9 away, 10 is 11 (wrap)
  EXPECT_EQ(overlay.nearest_member(99, 90), 10);  // exclusion forces the wrap
  EXPECT_EQ(overlay.successor(10), 50);
  EXPECT_EQ(overlay.successor(90), 10);  // ring wrap
  EXPECT_EQ(overlay.predecessor(10), 90);
  EXPECT_EQ(overlay.predecessor(55), 50);
}

TEST(DynamicOverlay, SuccessorOnLineStopsAtTheEnds) {
  DynamicOverlay overlay(Space::line(100), config(1));
  util::Rng rng(5);
  for (const Point p : {10, 50}) overlay.join(p, rng);
  EXPECT_EQ(overlay.successor(50), -1);
  EXPECT_EQ(overlay.predecessor(10), -1);
}

/// The reverse (in-link) index must exactly mirror the forward links.
void expect_link_indexes_consistent(const DynamicOverlay& overlay) {
  std::multiset<std::pair<Point, Point>> forward;
  for (const Point p : overlay.members()) {
    for (const Point t : overlay.long_links_of(p)) {
      forward.insert({p, t});
    }
  }
  // Each forward link to a live target must appear when walking links of all
  // members; dangling targets must be flagged by dangling_count().
  std::size_t dangling = 0;
  for (const auto& [from, to] : forward) {
    if (!overlay.occupied(to)) ++dangling;
  }
  EXPECT_EQ(overlay.dangling_count(), dangling);
}

TEST(DynamicOverlay, FullBuildInvariants) {
  const auto overlay = build_full(256, 4, 6);
  EXPECT_EQ(overlay.node_count(), 256u);
  EXPECT_EQ(overlay.dangling_count(), 0u);
  expect_link_indexes_consistent(overlay);
  // Out-degree: joiners draw ℓ links; redirects keep the count at ℓ.
  for (const Point p : overlay.members()) {
    EXPECT_LE(overlay.long_links_of(p).size(), 4u);
  }
}

TEST(DynamicOverlay, LeaveRemovesAllTracesAndRedraws) {
  auto overlay = build_full(128, 3, 7);
  util::Rng rng(8);
  overlay.leave(64, rng);
  EXPECT_FALSE(overlay.occupied(64));
  EXPECT_EQ(overlay.node_count(), 127u);
  EXPECT_EQ(overlay.dangling_count(), 0u);  // graceful: links redrawn at once
  for (const Point p : overlay.members()) {
    for (const Point t : overlay.long_links_of(p)) {
      EXPECT_NE(t, 64) << "a link still points at the departed node";
    }
  }
}

TEST(DynamicOverlay, CrashLeavesDanglingLinksThatRepairFixes) {
  auto overlay = build_full(128, 3, 9);
  util::Rng rng(10);
  // Crash a handful of nodes; their in-links dangle.
  for (const Point p : {10, 40, 90}) overlay.crash(p);
  EXPECT_GT(overlay.dangling_count(), 0u);
  const std::size_t repaired = overlay.repair(rng);
  EXPECT_GT(repaired, 0u);
  EXPECT_EQ(overlay.dangling_count(), 0u);
  expect_link_indexes_consistent(overlay);
}

TEST(DynamicOverlay, LeaveAndCrashRejectVacantPositions) {
  DynamicOverlay overlay(Space::ring(16), config(1));
  util::Rng rng(11);
  overlay.join(3, rng);
  EXPECT_THROW(overlay.leave(4, rng), std::invalid_argument);
  EXPECT_THROW(overlay.crash(4), std::invalid_argument);
}

TEST(DynamicOverlay, SnapshotMirrorsTheOverlay) {
  const auto overlay = build_full(128, 3, 12);
  const graph::OverlayGraph g = overlay.snapshot();
  EXPECT_EQ(g.size(), 128u);
  // Short links: ring neighbours; long links: exactly the stored targets.
  for (const Point p : overlay.members()) {
    const auto id = g.node_at(p);
    ASSERT_NE(id, graph::kInvalidNode);
    const auto stored = overlay.long_links_of(p);
    const auto in_graph = g.long_neighbors(id);
    EXPECT_EQ(in_graph.size(), stored.size());
    for (const Point t : stored) {
      EXPECT_TRUE(g.has_link(id, g.node_at(t)));
    }
  }
}

TEST(DynamicOverlay, BidirectionalSnapshotHasReverseLinks) {
  const auto overlay = build_full(128, 3, 20);
  const graph::OverlayGraph g = overlay.snapshot(/*bidirectional=*/true);
  for (graph::NodeId u = 0; u < g.size(); ++u) {
    for (const graph::NodeId v : g.long_neighbors(u)) {
      EXPECT_TRUE(g.has_link(v, u));
    }
  }
}

TEST(DynamicOverlay, PartialSnapshotUsesSparsePositions) {
  DynamicOverlay overlay(Space::ring(64), config(2));
  util::Rng rng(13);
  for (const Point p : {1, 17, 33, 49}) overlay.join(p, rng);
  const graph::OverlayGraph g = overlay.snapshot();
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.position(0), 1);
  EXPECT_EQ(g.position(3), 49);
  // Ring short links connect the sparse members in a cycle.
  EXPECT_TRUE(g.has_link(g.node_at(49), g.node_at(1)));
}

TEST(DynamicOverlay, OldestPolicyReplacesTheOldestLink) {
  // A node with design degree 1: its single link is the oldest by
  // definition, so any accepted redirect must replace it.
  DynamicOverlay overlay(Space::ring(1024), config(1, ReplacePolicy::kOldest));
  util::Rng rng(14);
  for (Point p = 0; p < 512; ++p) overlay.join(p, rng);
  expect_link_indexes_consistent(overlay);
  for (const Point p : overlay.members()) {
    EXPECT_LE(overlay.long_links_of(p).size(), 1u);
  }
}

TEST(DynamicOverlay, NeverPolicyKeepsJoinLinksOnly) {
  const auto overlay = build_full(256, 2, 15, ReplacePolicy::kNever);
  // Without redirects every node keeps exactly the links it drew at join
  // (the first joiner has none).
  std::size_t with_fewer = 0;
  for (const Point p : overlay.members()) {
    const auto links = overlay.long_links_of(p);
    EXPECT_LE(links.size(), 2u);
    if (links.size() < 2) ++with_fewer;
  }
  EXPECT_LE(with_fewer, 1u);  // only the bootstrap node
}

TEST(DynamicOverlay, LinkLengthDistributionTracksInversePowerLaw) {
  // Statistical heart of Figure 5: aggregate link lengths from the heuristic
  // must be close to P(d) ∝ 1/d. We compare the empirical mass of short vs
  // medium lengths against the ideal with generous tolerances.
  const std::uint64_t n = 2048;
  const auto overlay = build_full(n, 8, 16);
  const auto lengths = overlay.long_link_lengths();
  ASSERT_GT(lengths.size(), 10'000u);
  std::vector<double> mass(n / 2 + 1, 0.0);
  for (const auto d : lengths) mass[d] += 1.0;
  for (double& m : mass) m /= static_cast<double>(lengths.size());

  // Ideal on a ring: P(d) = 2 * (1/d) / (2 * H_{n/2} - antipode term).
  const double denom = 2.0 * util::harmonic(n / 2) - 2.0 / static_cast<double>(n);
  const auto ideal = [&](std::uint64_t d) {
    const double sides = d == n / 2 ? 1.0 : 2.0;
    return sides / (static_cast<double>(d) * denom);
  };
  // Pointwise at short lengths (where the paper reports max error ~0.022).
  EXPECT_NEAR(mass[1], ideal(1), 0.05);
  EXPECT_NEAR(mass[2], ideal(2), 0.04);
  // Aggregated tail mass: lengths in [64, 256).
  double got = 0.0, want = 0.0;
  for (std::uint64_t d = 64; d < 256; ++d) {
    got += mass[d];
    want += ideal(d);
  }
  EXPECT_NEAR(got, want, 0.05);
}

TEST(DynamicOverlay, RejectsBadConfig) {
  EXPECT_THROW(DynamicOverlay(Space::ring(16), config(0)), std::invalid_argument);
  ConstructionConfig bad = config(1);
  bad.exponent = -2.0;
  EXPECT_THROW(DynamicOverlay(Space::ring(16), bad), std::invalid_argument);
}

TEST(DynamicOverlay, RejectsATorusOrOnePointBeforeBuildingForIt) {
  // The §5 heuristic snaps to neighbours in an ordered member set, which a
  // 2-D metric does not have. The overlay's own check refuses the space
  // before the link sampler (which has a check of its own) or the
  // per-position link lists are built.
  const auto refusal = [](const Space& space) -> std::string {
    try {
      DynamicOverlay overlay(space, config(1));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(refusal(Space::torus(8)).rfind("DynamicOverlay:", 0), 0u);
  EXPECT_EQ(refusal(Space::line(1)).rfind("DynamicOverlay:", 0), 0u);
}

TEST(DynamicOverlay, RepairOnEmptyOverlayIsZero) {
  DynamicOverlay overlay(Space::ring(16), config(1));
  util::Rng rng(17);
  EXPECT_EQ(overlay.repair(rng), 0u);
  EXPECT_EQ(overlay.dangling_count(), 0u);
}

}  // namespace
}  // namespace p2p::core
