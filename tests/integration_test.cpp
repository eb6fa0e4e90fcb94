// Integration tests: whole-system behaviours the paper claims, at reduced
// scale. These cross module boundaries (construction -> snapshot -> failure
// -> routing -> measurement) and check shapes, not constants.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "core/construction.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "sim/hop_simulator.h"
#include "store/quorum_store.h"
#include "util/rng.h"

namespace p2p {
namespace {

using core::Router;
using core::RouterConfig;
using core::StuckPolicy;
using failure::FailureView;
using graph::BuildSpec;
using graph::OverlayGraph;
using metric::Point;
using metric::Space;

OverlayGraph ideal_network(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  return graph::build_overlay(spec, rng);
}

OverlayGraph constructed_network(std::uint64_t n, std::size_t links,
                                 std::uint64_t seed) {
  core::ConstructionConfig cfg;
  cfg.long_links = links;
  core::DynamicOverlay overlay(Space::ring(n), cfg);
  util::Rng rng(seed);
  std::vector<Point> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const Point p : order) overlay.join(p, rng);
  return overlay.snapshot();
}

double failure_fraction(const OverlayGraph& g, double p_fail, StuckPolicy policy,
                        std::size_t messages, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto view = FailureView::with_node_failures(g, p_fail, rng);
  if (view.alive_count() < 2) return 1.0;
  RouterConfig cfg;
  cfg.stuck_policy = policy;
  const Router router(g, view, cfg);
  const auto batch = sim::run_batch(router, messages, rng);
  return batch.failure_fraction();
}

TEST(Integration, FailedSearchFractionScalesWithFailedNodeFraction) {
  // §6: "Even if we just terminate the search, we get less than p fraction of
  // failed searches with p fraction of failed nodes." The strict < p holds at
  // the paper's scale (n = 2^17, ℓ = 17; see bench/fig6_node_failures); at
  // this reduced scale we assert the shape: same order as p and monotone.
  const auto g = ideal_network(4096, 12, 21);
  double prev = -1.0;
  for (const double p : {0.1, 0.3, 0.5}) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      total += failure_fraction(g, p, StuckPolicy::kTerminate, 300, 100 + seed);
    }
    const double fraction = total / 3.0;
    EXPECT_LT(fraction, p * 1.5) << "p=" << p;
    EXPECT_GT(fraction, prev) << "p=" << p;
    prev = fraction;
  }
}

TEST(Integration, BacktrackingBeatsTerminationUnderHeavyFailures) {
  const auto g = ideal_network(4096, 12, 22);
  const double p = 0.6;
  const double term = failure_fraction(g, p, StuckPolicy::kTerminate, 400, 7);
  const double back = failure_fraction(g, p, StuckPolicy::kBacktrack, 400, 7);
  EXPECT_LT(back, term);
}

TEST(Integration, RerouteFallsBetweenTerminateAndBacktrack) {
  const auto g = ideal_network(4096, 12, 23);
  const double p = 0.5;
  const double term = failure_fraction(g, p, StuckPolicy::kTerminate, 600, 9);
  const double rr = failure_fraction(g, p, StuckPolicy::kRandomReroute, 600, 9);
  const double back = failure_fraction(g, p, StuckPolicy::kBacktrack, 600, 9);
  EXPECT_LE(back, rr + 0.05);
  EXPECT_LE(rr, term + 0.02);  // reroute never does worse than terminating
}

TEST(Integration, ConstructedNetworkRoutesComparablyToIdeal) {
  // Figure 7's claim: the heuristic-built network fails somewhat more often
  // than the ideal one, but comparably.
  const auto ideal = ideal_network(2048, 11, 24);
  const auto constructed = constructed_network(2048, 11, 24);
  const double p = 0.4;
  const double f_ideal =
      failure_fraction(ideal, p, StuckPolicy::kTerminate, 500, 11);
  const double f_constructed =
      failure_fraction(constructed, p, StuckPolicy::kTerminate, 500, 11);
  EXPECT_LT(f_ideal, 0.5);
  EXPECT_LT(f_constructed, 0.65);
  EXPECT_LT(std::abs(f_constructed - f_ideal), 0.25);
}

TEST(Integration, MoreLinksMeanFewerHops) {
  // Theorem 13's shape: T = O(log² n / ℓ).
  util::Rng rng(25);
  const auto g1 = ideal_network(4096, 1, 26);
  const auto g8 = ideal_network(4096, 8, 27);
  const auto v1 = FailureView::all_alive(g1);
  const auto v8 = FailureView::all_alive(g8);
  const auto b1 = sim::run_batch(Router(g1, v1), 400, rng);
  const auto b8 = sim::run_batch(Router(g8, v8), 400, rng);
  EXPECT_LT(b8.hops_success.mean(), b1.hops_success.mean() / 2.0);
}

TEST(Integration, LinkFailuresSlowButRarelyStopSearches) {
  // Theorem 15: with ±1 links immortal, searches still deliver, just slower.
  util::Rng rng(28);
  BuildSpec spec;
  spec.grid_size = 2048;
  spec.long_links = 11;
  const auto g = graph::build_overlay(spec, rng);
  const auto healthy = FailureView::all_alive(g);
  util::Rng fail_rng(29);
  const auto degraded = FailureView::with_link_failures(g, 0.5, fail_rng);
  const auto b_ok = sim::run_batch(Router(g, healthy), 300, rng);
  const auto b_bad = sim::run_batch(Router(g, degraded), 300, rng);
  EXPECT_EQ(b_bad.failed(), 0u);  // short links guarantee delivery
  EXPECT_GT(b_bad.hops_success.mean(), b_ok.hops_success.mean());
}

TEST(Integration, DeterministicLinksMeetTheTheorem14Bound) {
  util::Rng rng(30);
  BuildSpec spec;
  spec.grid_size = 4096;
  spec.link_model = BuildSpec::LinkModel::kBaseBFull;
  spec.base = 2;
  const auto g = graph::build_overlay(spec, rng);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  const double digits = std::ceil(std::log2(4096.0));
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<graph::NodeId>(rng.next_below(g.size()));
    const auto dst = static_cast<graph::NodeId>(rng.next_below(g.size()));
    const auto res = router.route(src, g.position(dst), rng);
    ASSERT_TRUE(res.delivered());
    // Base-2 digit elimination: at most ⌈log₂ n⌉ hops (b-1 = 1 per digit).
    EXPECT_LE(static_cast<double>(res.hops), digits);
  }
}

TEST(Integration, BinomialPresenceMatchesFullGridShape) {
  // Theorem 17: thinning the grid leaves delivery time at the same order.
  util::Rng rng(31);
  BuildSpec full;
  full.grid_size = 4096;
  full.long_links = 6;
  BuildSpec half = full;
  half.presence = 0.5;
  const auto g_full = graph::build_overlay(full, rng);
  const auto g_half = graph::build_overlay(half, rng);
  const auto v_full = FailureView::all_alive(g_full);
  const auto v_half = FailureView::all_alive(g_half);
  const auto b_full = sim::run_batch(Router(g_full, v_full), 400, rng);
  const auto b_half = sim::run_batch(Router(g_half, v_half), 400, rng);
  EXPECT_EQ(b_half.failed(), 0u);
  // Same order: within 2x of each other (the half grid is also smaller).
  EXPECT_LT(b_half.hops_success.mean(), b_full.hops_success.mean() * 2.0);
}

TEST(Integration, MeasuredSingleLinkTimeIsWithinTheorem12Bound) {
  util::Rng rng(32);
  const auto g = ideal_network(4096, 1, 33);
  const auto view = FailureView::all_alive(g);
  const auto batch = sim::run_batch(Router(g, view), 400, rng);
  EXPECT_LT(batch.hops_success.mean(), analysis::upper_single_link(4096));
}

TEST(Integration, QuorumStoreServesEveryKeyThroughCrashChurn) {
  // A replicated store serves every key through crash churn: each crash
  // wipes the victim's replicas, and one anti-entropy sweep re-replicates
  // before the next crash strikes.
  BuildSpec spec;
  spec.grid_size = 1024;
  spec.long_links = 6;
  spec.topology = Space::Kind::kRing;
  util::Rng build_rng(34);
  const auto g = graph::build_overlay(spec, build_rng);
  auto view = FailureView::all_alive(g);
  store::QuorumConfig cfg;
  cfg.k = 3;
  cfg.r = cfg.w = 2;
  store::QuorumStore store(g, cfg);
  const auto key = [](int i) { return "k" + std::to_string(i); };
  const auto value = [](int i) { return "v" + std::to_string(i); };
  for (int i = 0; i < 40; ++i) store.install(view, key(i), value(i));

  // 30 single-node crashes; node 0 stays up as the reading client.
  util::Rng rng(35);
  for (int crashes = 0; crashes < 30;) {
    const graph::NodeId victim = view.random_alive(rng);
    if (victim == 0) continue;
    store.forget(victim);
    view.kill_node(victim);
    ++crashes;
    ASSERT_EQ(store.repair_sweep(view).lost, 0u) << "after crash " << crashes;
  }

  std::vector<store::Op> gets(40);
  for (int i = 0; i < 40; ++i) gets[static_cast<std::size_t>(i)].key = key(i);
  RouterConfig router_cfg;
  router_cfg.stuck_policy = StuckPolicy::kBacktrack;
  const Router router(g, view, router_cfg);
  std::vector<store::OpResult> results(gets.size());
  store.run_batch(router, gets, results, /*seed_base=*/36);
  for (int i = 0; i < 40; ++i) {
    const auto& got = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(got.ok && got.found) << key(i);
    EXPECT_EQ(got.value, value(i));
  }
}

}  // namespace
}  // namespace p2p
