// Unit + property tests for core/router.h: greedy semantics, one- vs
// two-sided routing, the three §6 recovery strategies, knowledge models and
// the resumable session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::core {
namespace {

using failure::FailureView;
using graph::BuildSpec;
using graph::NodeId;
using graph::OverlayGraph;
using metric::Space;

/// Ring of n nodes with the ±1 short links, plus `long_links` (u -> v, in
/// node order).
OverlayGraph bare_ring(std::uint64_t n,
                       const std::vector<std::pair<NodeId, NodeId>>& long_links = {}) {
  graph::GraphBuilder b(Space::ring(n));
  b.wire_short_links();
  for (const auto& [u, v] : long_links) b.add_long_link(u, v);
  return b.freeze();
}

TEST(Router, DeliversAlongShortLinks) {
  const auto g = bare_ring(8);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 3, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.hops, 3u);
}

TEST(Router, TakesShorterArcOnRing) {
  const auto g = bare_ring(8);
  const auto view = FailureView::all_alive(g);
  RouterConfig cfg;
  cfg.record_path = true;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 6, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.hops, 2u);  // 0 -> 7 -> 6
  EXPECT_EQ(res.path, (std::vector<NodeId>{0, 7, 6}));
}

TEST(Router, ZeroHopsWhenAlreadyAtTarget) {
  const auto g = bare_ring(8);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  util::Rng rng(1);
  const RouteResult res = router.route(5, 5, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.hops, 0u);
}

TEST(Router, LongLinkShortcutsTheWalk) {
  const auto g = bare_ring(32, {{0, 16}});
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 14, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.hops, 3u);  // 0 -> 16 -> 15 -> 14
}

TEST(Router, RankZeroCandidateIsClosest) {
  const auto g = bare_ring(32, {{0, 8}, {0, 12}});
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  EXPECT_EQ(router.select_candidate(0, 13, 0), 12u);
  EXPECT_EQ(router.select_candidate(0, 8, 0), 8u);
  EXPECT_EQ(router.select_candidate(0, 1, 0), 1u);
}

TEST(Router, RankZeroCandidateIsInvalidWhenStuck) {
  auto g = bare_ring(8);
  auto view = FailureView::all_alive(g);
  view.kill_node(1);
  view.kill_node(7);
  const Router router(g, view);
  EXPECT_EQ(router.select_candidate(0, 3, 0), graph::kInvalidNode);
}

TEST(Router, DuplicateLinksAreDeduplicated) {
  // The long link 0 -> 5 is drawn twice ("with replacement").
  const auto g = bare_ring(16, {{0, 5}, {0, 5}});
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  const auto cands = router.candidates(0, 5);
  EXPECT_EQ(std::count(cands.begin(), cands.end(), 5u), 1);
}

TEST(Router, OneSidedNeverOvershoots) {
  // The long link 2 -> 12 overshoots target 14 when coming from 2.
  const auto g = bare_ring(16, {{2, 12}});
  const auto view = FailureView::all_alive(g);
  RouterConfig cfg;
  cfg.sidedness = Sidedness::kOneSided;
  cfg.record_path = true;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(2, 14, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.path, (std::vector<NodeId>{2, 1, 0, 15, 14}));
}

TEST(Router, TwoSidedUsesTheOvershootingLink) {
  const auto g = bare_ring(16, {{2, 12}});
  const auto view = FailureView::all_alive(g);
  RouterConfig cfg;
  cfg.record_path = true;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(2, 14, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.path, (std::vector<NodeId>{2, 12, 13, 14}));
}

TEST(Router, TerminatePolicyFailsAtDeadEnd) {
  auto g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  view.kill_node(4);  // blocks the clockwise walk 0 -> ... -> 5
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kTerminate;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 5, rng);
  EXPECT_EQ(res.status, RouteResult::Status::kStuck);
  EXPECT_EQ(res.hops, 3u);  // 0 -> 1 -> 2 -> 3, then no closer live neighbour
}

TEST(Router, BacktrackingEscapesTheDeadEnd) {
  auto g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  view.kill_node(4);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 5, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_GT(res.backtracks, 0u);
  // Walk in: 0,1,2,3; walk back: 2,1,0; then around: 9,8,7,6,5.
  EXPECT_EQ(res.hops, 11u);
  EXPECT_EQ(res.backtracks, 3u);
}

TEST(Router, BacktrackWindowLimitsTheEscape) {
  auto g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  view.kill_node(4);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.backtrack_window = 2;  // too small to get back to node 0
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 5, rng);
  EXPECT_EQ(res.status, RouteResult::Status::kStuck);
}

TEST(Router, UnboundedWindowAndTtlRouteLikeAGraphSizedWindow) {
  // The trail is a chain of nodes each strictly closer to the target, so it
  // never holds more than n - 1 entries: window = ttl = SIZE_MAX allocates a
  // graph-sized trail, not SIZE_MAX entries, and routes like window = n.
  const auto g = bare_ring(16, {{0, 8}, {3, 11}, {5, 13}, {9, 1}, {12, 4}});
  util::Rng fail_rng(3);
  const auto view = FailureView::with_node_failures(g, 0.4, fail_rng);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  cfg.ttl = SIZE_MAX;
  cfg.backtrack_window = SIZE_MAX;
  RouterConfig sized = cfg;
  sized.backtrack_window = g.size();
  const Router unbounded(g, view, cfg);
  const Router bounded(g, view, sized);
  std::size_t backtracks = 0;
  for (NodeId src = 0; src < g.size(); ++src) {
    for (NodeId dst = 0; dst < g.size(); ++dst) {
      util::Rng rng_a(src), rng_b(src);
      const RouteResult got = unbounded.route(src, g.position(dst), rng_a);
      const RouteResult want = bounded.route(src, g.position(dst), rng_b);
      EXPECT_EQ(got.status, want.status) << src << " -> " << dst;
      EXPECT_EQ(got.hops, want.hops) << src << " -> " << dst;
      EXPECT_EQ(got.path, want.path) << src << " -> " << dst;
      backtracks += want.backtracks;
    }
  }
  EXPECT_GT(backtracks, 0u);
}

TEST(Router, RandomRerouteRescuesTheSearch) {
  auto g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  view.kill_node(4);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kRandomReroute;
  cfg.max_reroutes = 8;
  const Router router(g, view, cfg);
  // With enough reroutes the detour almost surely crosses to the far arc.
  util::Rng rng(3);
  int delivered = 0;
  for (int trial = 0; trial < 20; ++trial) {
    if (router.route(0, 5, rng).delivered()) ++delivered;
  }
  EXPECT_GT(delivered, 10);
}

TEST(Router, RerouteCountsAreReported) {
  auto g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  view.kill_node(4);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kRandomReroute;
  cfg.max_reroutes = 1;
  const Router router(g, view, cfg);
  util::Rng rng(7);
  bool saw_reroute = false;
  for (int trial = 0; trial < 10; ++trial) {
    const RouteResult res = router.route(0, 5, rng);
    if (res.reroutes > 0) saw_reroute = true;
    EXPECT_LE(res.reroutes, 1u);
  }
  EXPECT_TRUE(saw_reroute);
}

TEST(Router, StaleKnowledgeStopsAtTheDeadBestNeighbour) {
  // The long link 0 -> 3 ties node 1 at distance 1 from target 2: node 1 wins.
  const auto g = bare_ring(8, {{0, 3}});
  auto view = FailureView::all_alive(g);
  view.kill_node(1);
  RouterConfig live_cfg;
  RouterConfig stale_cfg;
  stale_cfg.knowledge = Knowledge::kStale;
  util::Rng rng(1);
  const Router live(g, view, live_cfg);
  EXPECT_TRUE(live.route(0, 2, rng).delivered());  // picks 3 instead
  const Router stale(g, view, stale_cfg);
  EXPECT_EQ(stale.route(0, 2, rng).status, RouteResult::Status::kStuck);
}

TEST(Router, StaleKnowledgeStillSkipsDeadLinks) {
  const auto g = bare_ring(8, {{0, 3}});
  auto view = FailureView::all_alive(g);
  view.kill_link(0, 0);  // short link 0 -> 1 is down, both nodes alive
  RouterConfig cfg;
  cfg.knowledge = Knowledge::kStale;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 2, rng);
  EXPECT_TRUE(res.delivered());  // uses the long link to 3, then back to 2
}

TEST(Router, TtlBoundsTheSearch) {
  const auto g = bare_ring(64);
  const auto view = FailureView::all_alive(g);
  RouterConfig cfg;
  cfg.ttl = 3;
  const Router router(g, view, cfg);
  util::Rng rng(1);
  const RouteResult res = router.route(0, 32, rng);
  EXPECT_EQ(res.status, RouteResult::Status::kTtlExpired);
  EXPECT_LE(res.hops, 3u);
}

TEST(Router, RoutesToNearestNodeForVacantTargets) {
  graph::GraphBuilder b(Space::line(100), {10, 20, 80});
  b.wire_short_links();
  const OverlayGraph g = b.freeze();
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  util::Rng rng(1);
  // Target position 78 is vacant; node at 80 is nearest.
  const RouteResult res = router.route(0, 78, rng);
  EXPECT_TRUE(res.delivered());
  EXPECT_EQ(res.hops, 2u);  // 10 -> 20 -> 80
}

TEST(Router, RejectsMismatchedView) {
  const auto g1 = bare_ring(8);
  const auto g2 = bare_ring(8);
  const auto view = FailureView::all_alive(g2);
  EXPECT_THROW(Router(g1, view), std::invalid_argument);
}

TEST(Router, RejectsBadRouteArguments) {
  const auto g = bare_ring(8);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  util::Rng rng(1);
  EXPECT_THROW(static_cast<void>(router.route(99, 0, rng)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(router.route(0, 99, rng)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(router.candidates(99, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(router.candidates(0, 99)), std::invalid_argument);
}

TEST(RouteSession, AdaptsToViewChangesMidFlight) {
  auto g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  const Router router(g, view);
  RouteSession session(router, 0, 5);
  util::Rng rng(1);
  ASSERT_EQ(session.step(rng), std::optional<NodeId>(1));
  // Node 2 dies while the message sits at node 1: the session must stop.
  view.kill_node(2);
  EXPECT_EQ(session.step(rng), std::nullopt);
  EXPECT_EQ(session.state(), RouteSession::State::kStuck);
}

// -- Property sweep: greedy routing without failures always delivers ---------

struct SweepCase {
  std::string name;
  Space::Kind topology;
  Sidedness sidedness;
  std::uint64_t n;
  std::size_t links;
};

class GreedySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GreedySweep, AlwaysDeliversAndNeverLengthensTheWalk) {
  const auto& param = GetParam();
  util::Rng rng(1234);
  BuildSpec spec;
  spec.grid_size = param.n;
  spec.topology = param.topology;
  spec.long_links = param.links;
  const OverlayGraph g = build_overlay(spec, rng);
  const auto view = FailureView::all_alive(g);
  RouterConfig cfg;
  cfg.sidedness = param.sidedness;
  cfg.record_path = true;
  const Router router(g, view, cfg);

  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<NodeId>(rng.next_below(g.size()));
    const auto dst = static_cast<NodeId>(rng.next_below(g.size()));
    const RouteResult res = router.route(src, g.position(dst), rng);
    ASSERT_TRUE(res.delivered()) << param.name;
    // Greedy moves strictly closer each hop, so hops <= initial distance and
    // recorded distances decrease monotonically.
    const metric::Distance d0 = g.node_distance(src, dst);
    EXPECT_LE(res.hops, d0);
    metric::Distance prev = d0;
    for (const NodeId v : res.path) {
      const metric::Distance d = g.node_distance(v, dst);
      if (v != src) {
        EXPECT_LT(d, prev);
      }
      prev = d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, GreedySweep,
    ::testing::Values(
        SweepCase{"ring_two_sided", Space::Kind::kRing, Sidedness::kTwoSided, 512, 4},
        SweepCase{"ring_one_sided", Space::Kind::kRing, Sidedness::kOneSided, 512, 4},
        SweepCase{"line_two_sided", Space::Kind::kLine, Sidedness::kTwoSided, 512, 4},
        SweepCase{"line_one_sided", Space::Kind::kLine, Sidedness::kOneSided, 512, 4},
        SweepCase{"ring_single_link", Space::Kind::kRing, Sidedness::kTwoSided, 256, 1},
        SweepCase{"tiny_ring", Space::Kind::kRing, Sidedness::kTwoSided, 4, 1},
        SweepCase{"tiny_line", Space::Kind::kLine, Sidedness::kOneSided, 4, 1}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace p2p::core
