// CSR equivalence: the same topology assembled through the legacy
// incremental OverlayGraph mutators and through GraphBuilder::freeze must be
// structurally identical and produce byte-identical RouteResults for every
// stuck policy and sidedness, with and without failures — the guarantee that
// the builder/frozen split did not change routing semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p {
namespace {

using core::Router;
using core::RouteResult;
using core::RouterConfig;
using core::Sidedness;
using core::StuckPolicy;
using failure::FailureView;
using graph::GraphBuilder;
using graph::NodeId;
using graph::OverlayGraph;
using metric::Space;

/// Deterministic long-link plan: for each node, `links` targets drawn by a
/// fixed-seed Rng. Replaying the plan through both construction paths
/// guarantees identical topologies.
std::vector<std::pair<NodeId, NodeId>> long_link_plan(std::size_t n,
                                                      std::size_t links,
                                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> plan;
  plan.reserve(n * links);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t k = 0; k < links; ++k) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (v != u) plan.emplace_back(u, v);
    }
  }
  return plan;
}

OverlayGraph build_incremental(const Space& space,
                               const std::vector<std::pair<NodeId, NodeId>>& plan) {
  OverlayGraph g(space);
  graph::wire_short_links(g);
  for (const auto& [u, v] : plan) g.add_long_link(u, v);
  return g;
}

OverlayGraph build_frozen(const Space& space,
                          const std::vector<std::pair<NodeId, NodeId>>& plan) {
  GraphBuilder builder(space);
  builder.wire_short_links();
  for (const auto& [u, v] : plan) builder.add_long_link(u, v);
  return builder.freeze();
}

void expect_same_structure(const OverlayGraph& a, const OverlayGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (NodeId u = 0; u < a.size(); ++u) {
    ASSERT_EQ(a.position(u), b.position(u));
    ASSERT_EQ(a.short_degree(u), b.short_degree(u));
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
              std::vector<NodeId>(nb.begin(), nb.end()))
        << "node " << u;
  }
}

void expect_same_result(const RouteResult& a, const RouteResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.hops, b.hops) << label;
  EXPECT_EQ(a.backtracks, b.backtracks) << label;
  EXPECT_EQ(a.reroutes, b.reroutes) << label;
  EXPECT_EQ(a.path, b.path) << label;
}

struct PolicyCase {
  const char* name;
  StuckPolicy policy;
  Sidedness sidedness;
};

const PolicyCase kPolicyCases[] = {
    {"terminate_two_sided", StuckPolicy::kTerminate, Sidedness::kTwoSided},
    {"terminate_one_sided", StuckPolicy::kTerminate, Sidedness::kOneSided},
    {"reroute_two_sided", StuckPolicy::kRandomReroute, Sidedness::kTwoSided},
    {"reroute_one_sided", StuckPolicy::kRandomReroute, Sidedness::kOneSided},
    {"backtrack_two_sided", StuckPolicy::kBacktrack, Sidedness::kTwoSided},
    {"backtrack_one_sided", StuckPolicy::kBacktrack, Sidedness::kOneSided},
};

void run_equivalence(const Space& space, double p_fail) {
  const std::size_t n = space.size();
  const auto plan = long_link_plan(n, 4, /*seed=*/77);
  const OverlayGraph incremental = build_incremental(space, plan);
  const OverlayGraph frozen = build_frozen(space, plan);
  expect_same_structure(incremental, frozen);

  // Same seed + identical topology => identical failure draws on both.
  util::Rng fail_a(5), fail_b(5);
  const FailureView view_a =
      p_fail > 0.0 ? FailureView::with_node_failures(incremental, p_fail, fail_a)
                   : FailureView::all_alive(incremental);
  const FailureView view_b =
      p_fail > 0.0 ? FailureView::with_node_failures(frozen, p_fail, fail_b)
                   : FailureView::all_alive(frozen);
  ASSERT_EQ(view_a.alive_count(), view_b.alive_count());
  if (view_a.alive_count() < 2) return;

  for (const PolicyCase& pc : kPolicyCases) {
    RouterConfig cfg;
    cfg.stuck_policy = pc.policy;
    cfg.sidedness = pc.sidedness;
    cfg.record_path = true;
    const Router router_a(incremental, view_a, cfg);
    const Router router_b(frozen, view_b, cfg);
    util::Rng rng_a(99), rng_b(99), pick(13);
    for (int trial = 0; trial < 50; ++trial) {
      NodeId src = view_a.random_alive(pick);
      NodeId dst = view_a.random_alive(pick);
      const RouteResult ra = router_a.route(src, incremental.position(dst), rng_a);
      const RouteResult rb = router_b.route(src, frozen.position(dst), rng_b);
      expect_same_result(ra, rb, pc.name);
    }
  }
}

TEST(CsrEquivalence, RingNoFailures) { run_equivalence(Space::ring(512), 0.0); }

TEST(CsrEquivalence, LineNoFailures) { run_equivalence(Space::line(512), 0.0); }

TEST(CsrEquivalence, RingWithNodeFailures) {
  run_equivalence(Space::ring(512), 0.3);
}

TEST(CsrEquivalence, LineWithNodeFailures) {
  run_equivalence(Space::line(512), 0.3);
}

TEST(CsrEquivalence, LinkFailuresMatch) {
  const Space space = Space::ring(256);
  const auto plan = long_link_plan(space.size(), 3, /*seed=*/21);
  const OverlayGraph incremental = build_incremental(space, plan);
  const OverlayGraph frozen = build_frozen(space, plan);

  util::Rng fail_a(9), fail_b(9);
  const auto view_a = FailureView::with_link_failures(incremental, 0.6, fail_a);
  const auto view_b = FailureView::with_link_failures(frozen, 0.6, fail_b);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  const Router router_a(incremental, view_a, cfg);
  const Router router_b(frozen, view_b, cfg);
  util::Rng rng_a(3), rng_b(3), pick(4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<NodeId>(pick.next_below(incremental.size()));
    const auto dst = static_cast<NodeId>(pick.next_below(incremental.size()));
    expect_same_result(router_a.route(src, incremental.position(dst), rng_a),
                       router_b.route(src, frozen.position(dst), rng_b),
                       "link_failures");
  }
}

TEST(CsrEquivalence, SparsePositions) {
  // Sparse (binomial presence style) node sets through both paths.
  const Space space = Space::ring(300);
  std::vector<metric::Point> positions;
  for (metric::Point p = 0; p < 300; p += 3) positions.push_back(p);
  const std::size_t n = positions.size();
  const auto plan = long_link_plan(n, 3, /*seed=*/55);

  OverlayGraph incremental(space, positions);
  graph::wire_short_links(incremental);
  for (const auto& [u, v] : plan) incremental.add_long_link(u, v);

  GraphBuilder builder(space, positions);
  builder.wire_short_links();
  for (const auto& [u, v] : plan) builder.add_long_link(u, v);
  const OverlayGraph frozen = builder.freeze();

  expect_same_structure(incremental, frozen);

  const auto view_a = FailureView::all_alive(incremental);
  const auto view_b = FailureView::all_alive(frozen);
  RouterConfig cfg;
  cfg.record_path = true;
  const Router router_a(incremental, view_a, cfg);
  const Router router_b(frozen, view_b, cfg);
  util::Rng rng_a(8), rng_b(8), pick(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<NodeId>(pick.next_below(n));
    const auto dst = static_cast<NodeId>(pick.next_below(n));
    expect_same_result(router_a.route(src, incremental.position(dst), rng_a),
                       router_b.route(src, frozen.position(dst), rng_b),
                       "sparse");
  }
}

TEST(CsrEquivalence, MutationsKeepReplicasInSync) {
  // replace_long_link / clear_links / re-add exercise every replica write
  // path (inline prefix, spill tail, reserved-slot reuse); candidates() —
  // which reads the canonical CSR slice — must keep agreeing with
  // select_candidate — which reads the header replica.
  const Space space = Space::ring(64);
  GraphBuilder builder(space);
  builder.wire_short_links();
  util::Rng rng(31);
  for (NodeId u = 0; u < 64; ++u) {
    for (int k = 0; k < 16; ++k) {  // degree 18 > inline prefix
      const auto v = static_cast<NodeId>(rng.next_below(64));
      if (v != u) builder.add_long_link(u, v);
    }
  }
  OverlayGraph g = builder.freeze();
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);

  const auto check_agreement = [&](const std::string& label) {
    for (NodeId u = 0; u < g.size(); ++u) {
      for (metric::Point t = 0; t < 64; t += 7) {
        const auto cands = router.candidates(u, t);
        for (std::size_t r = 0; r < cands.size(); ++r) {
          ASSERT_EQ(router.select_candidate(u, t, r), cands[r])
              << label << " node " << u << " target " << t << " rank " << r;
        }
        ASSERT_EQ(router.select_candidate(u, t, cands.size()), graph::kInvalidNode)
            << label;
      }
    }
  };

  check_agreement("frozen");
  // In-place rewires hit both inline and spill replica slots.
  for (NodeId u = 0; u < g.size(); u += 3) {
    const std::size_t longs = g.out_degree(u) - g.short_degree(u);
    g.replace_long_link(u, 0, static_cast<NodeId>((u + 31) % 64));
    g.replace_long_link(u, longs - 1, static_cast<NodeId>((u + 17) % 64));
  }
  check_agreement("after_replace");
  // Degree truncation plus reserved-slot reuse.
  for (NodeId u = 0; u < g.size(); u += 5) {
    g.clear_links(u);
    g.add_short_link(u, (u + 1) % 64);
    g.add_short_link(u, (u + 63) % 64);
    for (int k = 0; k < 15; ++k) {
      g.add_long_link(u, static_cast<NodeId>((u + 2 + 4 * k) % 64));
    }
  }
  check_agreement("after_clear_and_readd");
}

}  // namespace
}  // namespace p2p
