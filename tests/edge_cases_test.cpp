// Cross-module edge cases: degenerate sizes, boundary interactions between
// failure views and routing policies, and secure-router corners not covered
// by the per-module suites.
#include <gtest/gtest.h>

#include <vector>

#include "core/construction.h"
#include "core/router.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "sim/hop_simulator.h"
#include "util/rng.h"

namespace p2p {
namespace {

using core::Router;
using core::RouterConfig;
using core::StuckPolicy;
using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;
using metric::Point;
using metric::Space;

/// The ring of n nodes with only its short links.
OverlayGraph bare_ring(std::uint64_t n) {
  graph::GraphBuilder b(Space::ring(n));
  b.wire_short_links();
  return b.freeze();
}

// -- Degenerate graph sizes ---------------------------------------------------

TEST(EdgeCases, TwoNodeRingRoutesBothWays) {
  const OverlayGraph g = bare_ring(2);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  util::Rng rng(1);
  EXPECT_EQ(router.route(0, 1, rng).hops, 1u);
  EXPECT_EQ(router.route(1, 0, rng).hops, 1u);
}

TEST(EdgeCases, TwoNodeLineViaBuilder) {
  util::Rng rng(2);
  graph::BuildSpec spec;
  spec.grid_size = 2;
  spec.topology = Space::Kind::kLine;
  const auto g = graph::build_overlay(spec, rng);
  EXPECT_EQ(g.short_degree(0), 1u);
  EXPECT_EQ(g.short_degree(1), 1u);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  EXPECT_TRUE(router.route(0, 1, rng).delivered());
}

TEST(EdgeCases, SingleMemberOverlaySnapshotAndRouting) {
  core::ConstructionConfig cfg;
  cfg.long_links = 3;
  core::DynamicOverlay overlay(Space::ring(64), cfg);
  util::Rng rng(3);
  overlay.join(10, rng);
  const auto g = overlay.snapshot();
  EXPECT_EQ(g.size(), 1u);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  // Routing anywhere resolves to the only node: zero hops.
  EXPECT_TRUE(router.route(0, 40, rng).delivered());
}

TEST(EdgeCases, ThreeMemberRingSnapshotShortLinksFormACycle) {
  core::ConstructionConfig cfg;
  cfg.long_links = 1;
  core::DynamicOverlay overlay(Space::ring(100), cfg);
  util::Rng rng(4);
  for (const Point p : {5, 50, 80}) overlay.join(p, rng);
  const auto g = overlay.snapshot();
  ASSERT_EQ(g.size(), 3u);
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(g.short_degree(u), 2u);
  }
}

// -- FailureView x policy interactions ---------------------------------------

TEST(EdgeCases, BacktrackOverDeadSourceNeighboursFailsCleanly) {
  const OverlayGraph g = bare_ring(8);
  auto view = FailureView::all_alive(g);
  view.kill_node(1);
  view.kill_node(7);  // source completely cut off
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  const Router router(g, view, cfg);
  util::Rng rng(5);
  const auto res = router.route(0, 4, rng);
  EXPECT_EQ(res.status, core::RouteResult::Status::kStuck);
  EXPECT_EQ(res.hops, 0u);
}

TEST(EdgeCases, RerouteWithZeroBudgetBehavesLikeTerminate) {
  const OverlayGraph g = bare_ring(10);
  auto view = FailureView::all_alive(g);
  view.kill_node(4);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kRandomReroute;
  cfg.max_reroutes = 0;
  const Router router(g, view, cfg);
  util::Rng rng(6);
  const auto res = router.route(0, 5, rng);
  EXPECT_EQ(res.status, core::RouteResult::Status::kStuck);
  EXPECT_EQ(res.reroutes, 0u);
}

TEST(EdgeCases, RouteToDeadTargetAlwaysFails) {
  util::Rng rng(7);
  graph::BuildSpec spec;
  spec.grid_size = 128;
  spec.long_links = 4;
  const auto g = graph::build_overlay(spec, rng);
  auto view = FailureView::all_alive(g);
  view.kill_node(64);
  for (const auto policy : {StuckPolicy::kTerminate, StuckPolicy::kRandomReroute,
                            StuckPolicy::kBacktrack}) {
    RouterConfig cfg;
    cfg.stuck_policy = policy;
    const Router router(g, view, cfg);
    EXPECT_FALSE(router.route(0, 64, rng).delivered());
  }
}

TEST(EdgeCases, LinkAndNodeFailureViewsCompose) {
  // kill_link on a node-failure view: both effects must apply.
  util::Rng rng(8);
  graph::BuildSpec spec;
  spec.grid_size = 32;
  spec.long_links = 2;
  const auto g = graph::build_overlay(spec, rng);
  auto view = FailureView::with_node_failures(g, 0.0, rng);
  view.kill_node(5);
  view.kill_link(0, 0);
  EXPECT_FALSE(view.hop_usable(0, 0));
  EXPECT_FALSE(view.node_alive(5));
  EXPECT_TRUE(view.node_alive(0));
}

// -- Secure router corners -------------------------------------------------------

TEST(EdgeCases, SecureRouterMorePathsThanNeighboursStillWorks) {
  const OverlayGraph g = bare_ring(16);
  const auto view = FailureView::all_alive(g);
  const auto byz = failure::ByzantineSet::none(g);
  const core::SecureRouter router(g, view, byz, {.paths = 10});
  util::Rng rng(16);
  const auto res = router.route(0, 8, rng);
  EXPECT_TRUE(res.delivered);
  // Only two distinct first hops exist; extra walks reuse the last rank.
  EXPECT_EQ(res.successful_walks, 10u);
}

TEST(EdgeCases, FullyByzantineInteriorBlocksEverything) {
  const OverlayGraph g = bare_ring(8);
  const auto view = FailureView::all_alive(g);
  auto byz = failure::ByzantineSet::none(g);
  for (NodeId u = 1; u < 8; ++u) {
    if (u != 4) byz.corrupt(u);
  }
  const core::SecureRouter router(g, view, byz, {.paths = 4});
  util::Rng rng(17);
  EXPECT_FALSE(router.route(0, 4, rng).delivered);
}

// -- run_batch preconditions -----------------------------------------------------

TEST(EdgeCases, RunBatchRequiresTwoLiveNodes) {
  const OverlayGraph g = bare_ring(4);
  auto view = FailureView::all_alive(g);
  for (NodeId u = 1; u < 4; ++u) view.kill_node(u);
  const Router router(g, view);
  util::Rng rng(18);
  EXPECT_THROW(static_cast<void>(sim::run_batch(router, 10, rng)),
               std::invalid_argument);
}

}  // namespace
}  // namespace p2p
