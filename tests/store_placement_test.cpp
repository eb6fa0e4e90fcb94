// Replica placement (store/placement.h): k-nearest-live selection.
//  * shape on the line / ring / torus: ordered by (distance, position),
//    unique, all alive, matching a brute-force sort of the live nodes;
//  * owner prefix: replica_set(view, p, 1)[0] == node_nearest for every
//    point, and growing k only appends;
//  * dead nodes are skipped and selection is a pure function of the view
//    bits — the same FailureView epoch yields the same set whether reached
//    by apply() going forward or revert() coming back;
//  * the pooled torus scan is bit-identical to the serial walk;
//  * count > alive clamps to the live population;
//  * the key embedding placement starts from (dht/hash.h): standard FNV-1a
//    vectors, stable in-range points, and a near-collision-free spread.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dht/hash.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "store/placement.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::store {
namespace {

using failure::FailureView;
using graph::NodeId;

graph::OverlayGraph ring_overlay(std::uint64_t n, std::uint64_t seed = 5) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = metric::Space::Kind::kRing;
  spec.long_links = 2;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

graph::OverlayGraph line_overlay(std::uint64_t n, std::uint64_t seed = 5) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = metric::Space::Kind::kLine;
  spec.long_links = 2;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

/// Brute force: sort every live node by (distance to p, position).
std::vector<NodeId> brute_force(const FailureView& view, metric::Point p,
                                std::size_t count) {
  const auto& g = view.graph();
  const metric::Space space = g.space();
  std::vector<NodeId> live;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (view.node_alive(u)) live.push_back(u);
  }
  std::sort(live.begin(), live.end(), [&](NodeId a, NodeId b) {
    const auto da = space.distance(g.position(a), p);
    const auto db = space.distance(g.position(b), p);
    return da != db ? da < db : g.position(a) < g.position(b);
  });
  live.resize(std::min(count, live.size()));
  return live;
}

void expect_matches_brute_force(const FailureView& view, std::size_t count) {
  const metric::Space space = view.graph().space();
  util::Rng rng(99);
  for (int trial = 0; trial < 64; ++trial) {
    const auto p =
        static_cast<metric::Point>(rng.next_below(space.size()));
    EXPECT_EQ(replica_set(view, p, count), brute_force(view, p, count))
        << "point " << p;
  }
}

TEST(Placement, RingMatchesBruteForce) {
  const auto g = ring_overlay(257);
  expect_matches_brute_force(FailureView::all_alive(g), 5);
}

TEST(Placement, LineMatchesBruteForce) {
  const auto g = line_overlay(200);
  // Lines have boundary asymmetry: probe ends and middle alike.
  const auto view = FailureView::all_alive(g);
  expect_matches_brute_force(view, 4);
  EXPECT_EQ(replica_set(view, 0, 3), brute_force(view, 0, 3));
  EXPECT_EQ(replica_set(view, 199, 3), brute_force(view, 199, 3));
}

TEST(Placement, TorusMatchesBruteForceSerialAndPooled) {
  util::Rng rng(31);
  const auto g = graph::build_kleinberg_overlay(12, 2, 2.0, rng);
  const auto view = FailureView::all_alive(g);
  expect_matches_brute_force(view, 6);

  util::ThreadPool pool(4);
  std::array<NodeId, kMaxReplicas> serial{};
  std::array<NodeId, kMaxReplicas> pooled{};
  for (metric::Point p = 0; p < 144; p += 7) {
    const std::size_t ns = nearest_live(view, p, 6, std::span<NodeId>(serial));
    const std::size_t np =
        nearest_live(view, p, 6, std::span<NodeId>(pooled), pool);
    ASSERT_EQ(ns, np);
    for (std::size_t t = 0; t < ns; ++t) EXPECT_EQ(serial[t], pooled[t]);
  }
}

TEST(Placement, OwnerPrefixAndGrowingKAppends) {
  const auto g = ring_overlay(128);
  const auto view = FailureView::all_alive(g);
  std::vector<metric::Point> positions(g.size());
  for (NodeId u = 0; u < g.size(); ++u) positions[u] = g.position(u);
  for (metric::Point p = 0; p < 128; ++p) {
    const auto k1 = replica_set(view, p, 1);
    ASSERT_EQ(k1.size(), 1u);
    EXPECT_EQ(k1[0], graph::detail::node_nearest(g.space(), positions, p));
    const auto k3 = replica_set(view, p, 3);
    const auto k5 = replica_set(view, p, 5);
    ASSERT_EQ(k5.size(), 5u);
    EXPECT_TRUE(std::equal(k3.begin(), k3.end(), k5.begin()));
    EXPECT_EQ(k1[0], k3[0]);
  }
}

TEST(Placement, DeadNodesAreSkipped) {
  const auto g = ring_overlay(64);
  auto view = FailureView::all_alive(g);
  const metric::Point p = 10;
  const auto before = replica_set(view, p, 3);
  view.kill_node(before[0]);
  view.kill_node(before[2]);
  const auto after = replica_set(view, p, 3);
  for (const NodeId u : after) {
    EXPECT_TRUE(view.node_alive(u));
    EXPECT_NE(u, before[0]);
    EXPECT_NE(u, before[2]);
  }
  EXPECT_EQ(after, brute_force(view, p, 3));
  EXPECT_EQ(after[0], before[1]);  // the surviving replica moves up
}

TEST(Placement, DeterministicAcrossEpochSeeks) {
  // The same epoch's view bits select the same replica sets whether the
  // epoch was reached by apply() or recovered by revert().
  const auto g = ring_overlay(96);
  auto view = FailureView::all_alive(g);

  failure::FailureDelta d1;
  d1.node_kills = {3, 17, 40, 41, 42};
  failure::FailureDelta d2;
  d2.node_kills = {5, 60};
  d2.node_revives = {17, 41};

  std::vector<std::vector<NodeId>> at_epoch(3);
  const auto snapshot = [&](const FailureView& v) {
    std::vector<NodeId> sets;
    for (metric::Point p = 0; p < 96; p += 5) {
      const auto s = replica_set(v, p, 4);
      sets.insert(sets.end(), s.begin(), s.end());
    }
    return sets;
  };

  at_epoch[0] = snapshot(view);
  view.apply(d1);
  at_epoch[1] = snapshot(view);
  view.apply(d2);
  at_epoch[2] = snapshot(view);

  view.revert(d2);
  EXPECT_EQ(snapshot(view), at_epoch[1]);
  view.revert(d1);
  EXPECT_EQ(snapshot(view), at_epoch[0]);
  view.apply(d1);
  EXPECT_EQ(snapshot(view), at_epoch[1]);
}

TEST(Placement, CountClampsToLivePopulation) {
  const auto g = ring_overlay(16);
  auto view = FailureView::all_alive(g);
  for (NodeId u = 4; u < 16; ++u) view.kill_node(u);

  std::array<NodeId, kMaxReplicas> out{};
  const std::size_t n = nearest_live(view, 9, 8, std::span<NodeId>(out));
  EXPECT_EQ(n, 4u);
  std::vector<NodeId> got(out.begin(), out.begin() + n);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 3}));

  const auto empty_count =
      nearest_live(view, 9, 0, std::span<NodeId>(out));
  EXPECT_EQ(empty_count, 0u);
}

TEST(Hash, Fnv1aMatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(dht::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(dht::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(dht::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, PointForKeyIsStableAndInRange) {
  const metric::Space ring = metric::Space::ring(1024);
  for (const std::string key : {"alice.mp3", "bob.txt", "", "z"}) {
    const metric::Point p = dht::point_for_key(key, ring);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 1024);
    EXPECT_EQ(p, dht::point_for_key(key, ring));  // deterministic
  }
}

TEST(Hash, PointsSpreadAcrossTheGrid) {
  const metric::Space ring = metric::Space::ring(1 << 20);
  std::set<metric::Point> points;
  for (int i = 0; i < 1000; ++i) {
    points.insert(dht::point_for_key("key-" + std::to_string(i), ring));
  }
  EXPECT_GT(points.size(), 990u);  // essentially no collisions at 2^20
}

}  // namespace
}  // namespace p2p::store
