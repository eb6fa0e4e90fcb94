// Pins the failure-aware (masked) SIMD candidate scan:
//  * FailureView's link-liveness words and node-alive byte sideband agree
//    bit-for-bit with the scalar link_alive_at/node_alive queries, through
//    manual kills/revives and delta-log apply/revert;
//  * select_candidate under arbitrary failure views — dead nodes, dead
//    links, both, stale knowledge — at every rank up to the degree is
//    identical between the vectorized path and the scalar table (P2P_NO_SIMD pins both on one host), and
//    both equal the allocating candidates() reference, on the line, the
//    ring and the Kleinberg torus;
//  * route()/route_batch() (widths 1 and 32) are bit-identical between the
//    two implementations under failures, and stay so while a churn log
//    seeks the view forward and backward across epochs.
// On hosts without AVX-512 both routers run the scalar table and the
// equivalences hold trivially.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p {
namespace {

using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph ring_overlay(std::uint64_t n, std::size_t links, std::uint64_t seed,
                          metric::Space::Kind kind = metric::Space::Kind::kRing) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.topology = kind;
  spec.bidirectional = true;  // reverse links push hub degrees past kInlineEdges
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

/// A router pair over one (graph, view, config): `simd` built with the
/// default dispatch, `scalar` with RouterConfig::force_scalar pinning the
/// scalar table (the *_scalar CTest registration additionally forces the
/// `simd` one scalar too via P2P_NO_SIMD=1, covering the env override).
struct RouterPair {
  core::Router simd;
  core::Router scalar;

  RouterPair(const OverlayGraph& g, const FailureView& view,
             core::RouterConfig cfg = {})
      : simd(g, view, cfg), scalar(g, view, scalar_config(cfg)) {
    EXPECT_FALSE(scalar.simd_eligible());
  }

  static core::RouterConfig scalar_config(core::RouterConfig cfg) {
    cfg.force_scalar = true;
    return cfg;
  }
};

/// select_candidate (simd vs scalar vs candidates()) over `trials` random
/// (u, target) pairs, every rank up to the degree.
void check_selection_equivalence(const RouterPair& pair, std::uint64_t seed,
                                 int trials, const std::string& label) {
  const OverlayGraph& g = pair.simd.graph();
  util::Rng pick(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const auto u = static_cast<NodeId>(pick.next_below(g.size()));
    const auto t = g.position(static_cast<NodeId>(pick.next_below(g.size())));
    const auto reference = pair.scalar.candidates(u, t);
    for (std::size_t rank = 0; rank <= g.out_degree(u); ++rank) {
      const NodeId with_simd = pair.simd.select_candidate(u, t, rank);
      const NodeId without = pair.scalar.select_candidate(u, t, rank);
      const NodeId want =
          rank < reference.size() ? reference[rank] : graph::kInvalidNode;
      ASSERT_EQ(with_simd, without)
          << label << " u=" << u << " t=" << t << " rank=" << rank;
      ASSERT_EQ(without, want)
          << label << " u=" << u << " t=" << t << " rank=" << rank;
    }
  }
}

/// route() and route_batch() (widths 1 and 32) bit-identical between the
/// simd and scalar routers.
void check_route_equivalence(const RouterPair& pair, std::uint64_t seed,
                             std::size_t messages, const std::string& label) {
  const OverlayGraph& g = pair.simd.graph();
  util::Rng pick(seed);
  std::vector<core::Query> queries(messages);
  for (auto& q : queries) {
    q = {static_cast<NodeId>(pick.next_below(g.size())),
         g.position(static_cast<NodeId>(pick.next_below(g.size())))};
  }
  for (std::size_t i = 0; i < messages; ++i) {
    util::Rng a(seed + 1 + i);
    util::Rng b(seed + 1 + i);
    const auto with_simd = pair.simd.route(queries[i].src, queries[i].target, a);
    const auto without = pair.scalar.route(queries[i].src, queries[i].target, b);
    ASSERT_EQ(with_simd.status, without.status) << label << " query=" << i;
    ASSERT_EQ(with_simd.hops, without.hops) << label << " query=" << i;
    ASSERT_EQ(with_simd.backtracks, without.backtracks) << label << " query=" << i;
    ASSERT_EQ(with_simd.reroutes, without.reroutes) << label << " query=" << i;
  }
  for (const std::size_t width : {std::size_t{1}, std::size_t{32}}) {
    core::BatchConfig batch;
    batch.width = width;
    std::vector<core::RouteResult> got(messages);
    std::vector<core::RouteResult> want(messages);
    util::Rng a(seed + 7);
    util::Rng b(seed + 7);
    pair.simd.route_batch(queries, got, a, batch);
    pair.scalar.route_batch(queries, want, b, batch);
    for (std::size_t i = 0; i < messages; ++i) {
      ASSERT_EQ(got[i].status, want[i].status)
          << label << " width=" << width << " query=" << i;
      ASSERT_EQ(got[i].hops, want[i].hops)
          << label << " width=" << width << " query=" << i;
    }
  }
}

/// One view per failure shape the masked kernels distinguish: dead nodes
/// only, dead links only, both at once.
std::vector<std::pair<std::string, FailureView>> failure_views(
    const OverlayGraph& g, std::uint64_t seed) {
  std::vector<std::pair<std::string, FailureView>> views;
  util::Rng rng(seed);
  views.emplace_back("nodes", FailureView::with_node_failures(g, 0.3, rng));
  views.emplace_back("links", FailureView::with_link_failures(g, 0.6, rng));
  auto both = FailureView::with_link_failures(g, 0.7, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    if (rng.next_bool(0.25)) both.kill_node(u);
  }
  views.emplace_back("both", std::move(both));
  return views;
}

TEST(MaskedScan, SidebandsMatchScalarQueries) {
  const auto g = ring_overlay(512, 6, 21);
  auto view = FailureView::all_alive(g);
  EXPECT_EQ(view.node_alive_bytes(), nullptr);
  util::Rng rng(22);
  for (int round = 0; round < 200; ++round) {
    const auto u = static_cast<NodeId>(rng.next_below(g.size()));
    if (rng.next_bool(0.5)) {
      rng.next_bool(0.5) ? view.kill_node(u) : view.revive_node(u);
    } else if (g.out_degree(u) > 0) {
      const std::size_t i = rng.next_below(g.out_degree(u));
      rng.next_bool(0.5) ? view.kill_link(u, i) : view.revive_link(u, i);
    }
  }
  ASSERT_NE(view.node_alive_bytes(), nullptr);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(view.node_alive_bytes()[u], view.node_alive(u) ? 1 : 0) << u;
  }
  ASSERT_FALSE(view.links_intact());
  for (NodeId u = 0; u < g.size(); ++u) {
    const std::size_t base = g.edge_base(u);
    const std::uint64_t word = view.link_live_word(base);
    for (std::size_t i = 0; i < g.out_degree(u) && i < 64; ++i) {
      EXPECT_EQ((word >> i) & 1u, view.link_alive_at(base + i) ? 1u : 0u)
          << "u=" << u << " i=" << i;
    }
  }
  // Windows at arbitrary (unaligned) slots, including the very last one.
  util::Rng slots(23);
  for (int round = 0; round < 200; ++round) {
    const std::size_t first = slots.next_below(g.edge_slots());
    const std::uint64_t word = view.link_live_word(first);
    for (std::size_t k = 0; k < 64 && first + k < g.edge_slots(); ++k) {
      ASSERT_EQ((word >> k) & 1u, view.link_alive_at(first + k) ? 1u : 0u)
          << "first=" << first << " k=" << k;
    }
  }
}

TEST(MaskedScan, SidebandsTrackDeltaApplyRevert) {
  const auto g = ring_overlay(512, 6, 31);
  churn::TraceSpec spec;
  spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  spec.duration = 64.0;
  spec.kill_rate = 4.0;
  spec.revive_rate = 4.0;
  util::Rng trace_rng(32);
  const auto log = churn::make_trace(g, spec, trace_rng);
  ASSERT_GT(log.size(), 0u);
  auto view = log.baseline();
  const auto check = [&] {
    if (view.nodes_intact()) {
      EXPECT_EQ(view.node_alive_bytes(), nullptr);
      return;
    }
    ASSERT_NE(view.node_alive_bytes(), nullptr);
    for (NodeId u = 0; u < g.size(); ++u) {
      ASSERT_EQ(view.node_alive_bytes()[u], view.node_alive(u) ? 1 : 0)
          << "epoch=" << view.epoch() << " u=" << u;
    }
  };
  for (std::uint64_t e = 0; e < log.size(); ++e) {
    log.seek(view, e + 1);
    check();
  }
  for (std::uint64_t e = log.size(); e > 0; --e) {
    log.seek(view, e - 1);
    check();
  }
}

TEST(MaskedScan, SelectionEquivalenceOneDimensional) {
  for (const auto kind :
       {metric::Space::Kind::kLine, metric::Space::Kind::kRing}) {
    const std::string space = kind == metric::Space::Kind::kLine ? "line" : "ring";
    const auto g = ring_overlay(4096, 12, 41, kind);
    for (auto& [name, view] : failure_views(g, 42)) {
      for (const auto knowledge :
           {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
        core::RouterConfig cfg;
        cfg.knowledge = knowledge;
        const RouterPair pair(g, view, cfg);
        const std::string label =
            space + "/" + name +
            (knowledge == core::Knowledge::kStale ? "/stale" : "/live");
        check_selection_equivalence(pair, 43, 600, label);
      }
    }
  }
}

TEST(MaskedScan, SelectionEquivalenceTorus) {
  util::Rng build_rng(51);
  const auto g = graph::build_kleinberg_overlay(45, 8, 2.0, build_rng);
  for (auto& [name, view] : failure_views(g, 52)) {
    for (const auto knowledge :
         {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
      core::RouterConfig cfg;
      cfg.knowledge = knowledge;
      const RouterPair pair(g, view, cfg);
      const std::string label =
          "torus/" + name +
          (knowledge == core::Knowledge::kStale ? "/stale" : "/live");
      check_selection_equivalence(pair, 53, 600, label);
    }
  }
}

TEST(MaskedScan, SelectionEquivalenceHighDegreeHub) {
  // A node whose degree crosses both the inline prefix (13) and the 64-bit
  // liveness-word boundary, so the masked scan's multi-word refetch and the
  // spill-tail path are both on the hook.
  const std::uint64_t n = 1024;
  graph::GraphBuilder builder{metric::Space::ring(n)};
  builder.wire_short_links();
  util::Rng rng(61);
  for (int i = 0; i < 150; ++i) {
    NodeId v = 0;
    while (v == 0) v = static_cast<NodeId>(rng.next_below(n));
    builder.add_long_link(0, v);
  }
  const auto g = builder.freeze();
  ASSERT_GT(g.out_degree(0), 64u);
  auto view = FailureView::with_node_failures(g, 0.4, rng);
  for (std::size_t i = 0; i < g.out_degree(0); ++i) {
    if (rng.next_bool(0.3)) view.kill_link(0, i);
  }
  const RouterPair pair(g, view);
  util::Rng pick(62);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto t = static_cast<metric::Point>(pick.next_below(n));
    const auto reference = pair.scalar.candidates(0, t);
    // Every rank on a few targets (the rank passes re-scan both segments and
    // every liveness word); the scan is O(rank * degree) per call.
    const std::size_t ranks = trial < 16 ? reference.size() + 1 : 1;
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      const NodeId want =
          rank < reference.size() ? reference[rank] : graph::kInvalidNode;
      ASSERT_EQ(pair.simd.select_candidate(0, t, rank), want)
          << "t=" << t << " rank=" << rank;
      ASSERT_EQ(pair.scalar.select_candidate(0, t, rank), want)
          << "t=" << t << " rank=" << rank;
    }
  }
}

TEST(MaskedScan, RouteAndBatchEquivalenceUnderFailures) {
  const auto g = ring_overlay(4096, 12, 71);
  util::Rng torus_rng(72);
  const auto tg = graph::build_kleinberg_overlay(45, 8, 2.0, torus_rng);
  for (const OverlayGraph* graph : {&g, &tg}) {
    for (auto& [name, view] : failure_views(*graph, 73)) {
      for (const auto knowledge :
           {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
        core::RouterConfig cfg;
        cfg.knowledge = knowledge;
        const RouterPair pair(*graph, view, cfg);
        check_route_equivalence(pair, 74, 64,
                                (graph == &g ? "ring/" : "torus/") + name);
      }
    }
  }
}

TEST(MaskedScan, EquivalenceAcrossChurnEpochs) {
  const auto g = ring_overlay(2048, 10, 81);
  // Node churn and link flap interleaved in one log: stage both scenarios'
  // worth of changes by committing two generated traces back to back.
  churn::TraceSpec node_spec;
  node_spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  node_spec.duration = 24.0;
  node_spec.kill_rate = 16.0;
  node_spec.revive_rate = 12.0;
  util::Rng node_rng(82);
  const auto node_log = churn::make_trace(g, node_spec, node_rng);
  churn::TraceSpec link_spec;
  link_spec.scenario = churn::TraceSpec::Scenario::kLinkFlap;
  link_spec.duration = 24.0;
  link_spec.flap_fraction = 0.05;
  util::Rng link_rng(83);
  const auto link_log = churn::make_trace(g, link_spec, link_rng);

  for (const churn::ChurnLog* log : {&node_log, &link_log}) {
    ASSERT_GT(log->size(), 0u);
    auto view = log->baseline();
    const RouterPair pair(g, view);
    // Forward through every epoch, then back down to 0; both routers read
    // the same mutating view, so equivalence at each stop pins the masked
    // kernels against incrementally maintained liveness state (never
    // re-derived between epochs).
    const auto stops = [&](std::uint64_t e) {
      log->seek(view, e);
      check_selection_equivalence(pair, 84 + e, 40,
                                  "epoch=" + std::to_string(e));
    };
    for (std::uint64_t e = 1; e <= log->size(); ++e) stops(e);
    for (std::uint64_t e = log->size(); e-- > 0;) stops(e);
    check_route_equivalence(pair, 85, 48, "post-churn");
  }
}

}  // namespace
}  // namespace p2p
