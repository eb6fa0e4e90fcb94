// Pins the compact frozen representation against the standard CSR layout:
//  * a graph built twice from the same (spec, seed) — once kStandard, once
//    kCompact — has identical structure through the shared query surface
//    (neighbors / operator[] / long_neighbors / decode_links / edge_base /
//    edge_slots / out_degree / short_degree / has_link);
//  * the slot + exception stream round-trips escaped (far) targets, not
//    just the one-word deltas small rings produce: each node's stream is its
//    slot words followed by the escaped absolutes in slot order;
//  * the AVX-512 decode equals neighbors() at degrees 0..33 across the
//    16-slot group edge, with an escape at every slot position, and hands
//    nodes past kSimdDecodeCap to the scalar decode;
//  * routing is bit-identical across layouts: candidates(),
//    select_candidate (SIMD and forced-scalar, every rank up to the degree),
//    route() and route_batch() (widths 1 and 32) — under all-alive,
//    node-failure, link-failure and mixed views, on the ring, the line and a
//    hand-built Kleinberg torus (the torus AVX-512 compact decode path);
//  * slot numbering matches: the same kill/revive sequence applied to views
//    over both layouts keeps every equivalence;
//  * degrees past the SIMD decode buffer (256) take the scalar fallback and
//    still agree;
//  * compact graphs refuse mutation (std::logic_error) and cost <= 60% of
//    the standard layout's bytes at the paper's lg n link density.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/rng.h"

namespace p2p {
namespace {

using failure::FailureView;
using graph::EdgeLayout;
using graph::NodeId;
using graph::OverlayGraph;

/// One adjacency, both frozen forms: `standard` and `compact` are built from
/// identical specs and identical rng seeds, so they differ only in layout.
struct LayoutPair {
  OverlayGraph standard;
  OverlayGraph compact;
};

OverlayGraph build_ring(std::uint64_t n, std::size_t links, std::uint64_t seed,
                        EdgeLayout layout, double exponent,
                        metric::Space::Kind kind) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.exponent = exponent;
  spec.topology = kind;
  spec.bidirectional = true;  // reverse links push hub degrees past kInlineEdges
  spec.layout = layout;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

LayoutPair ring_pair(std::uint64_t n, std::size_t links, std::uint64_t seed,
                     double exponent = 1.0,
                     metric::Space::Kind kind = metric::Space::Kind::kRing) {
  return {build_ring(n, links, seed, EdgeLayout::kStandard, exponent, kind),
          build_ring(n, links, seed, EdgeLayout::kCompact, exponent, kind)};
}

/// Hand-built Kleinberg lattice (build_kleinberg_overlay always freezes
/// standard, so the compact torus comes from wiring the same lattice + the
/// same seeded long links through two builders).
OverlayGraph build_torus(std::uint32_t side, std::size_t long_links,
                         std::uint64_t seed, EdgeLayout layout) {
  const metric::Space torus = metric::Space::torus(side);
  graph::GraphBuilder builder{torus};
  for (NodeId u = 0; u < builder.size(); ++u) {
    const auto [row, col] = torus.coords(static_cast<metric::Point>(u));
    const auto r = static_cast<std::int64_t>(row);
    const auto c = static_cast<std::int64_t>(col);
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r + 1, c)));
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r - 1, c)));
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r, c + 1)));
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r, c - 1)));
  }
  util::Rng rng(seed);
  const std::uint64_t n = builder.size();
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t k = 0; k < long_links; ++k) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (v != u) builder.add_long_link(u, v);
    }
  }
  return builder.freeze(layout);
}

LayoutPair torus_pair(std::uint32_t side, std::size_t long_links,
                      std::uint64_t seed) {
  return {build_torus(side, long_links, seed, EdgeLayout::kStandard),
          build_torus(side, long_links, seed, EdgeLayout::kCompact)};
}

void check_structure(const LayoutPair& p) {
  const OverlayGraph& a = p.standard;
  const OverlayGraph& b = p.compact;
  ASSERT_FALSE(a.compact());
  ASSERT_TRUE(b.compact());
  ASSERT_EQ(b.layout(), EdgeLayout::kCompact);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.link_count(), b.link_count());
  ASSERT_EQ(a.edge_slots(), b.edge_slots());
  ASSERT_EQ(a.space(), b.space());
  std::vector<NodeId> decoded;
  for (NodeId u = 0; u < a.size(); ++u) {
    ASSERT_EQ(a.out_degree(u), b.out_degree(u)) << "u=" << u;
    ASSERT_EQ(a.short_degree(u), b.short_degree(u)) << "u=" << u;
    ASSERT_EQ(a.edge_base(u), b.edge_base(u)) << "u=" << u;
    ASSERT_EQ(a.position(u), b.position(u)) << "u=" << u;
    // Iteration (the decode-as-you-go cursor) against the raw slice.
    const auto ra = a.neighbors(u);
    const auto rb = b.neighbors(u);
    ASSERT_EQ(ra.size(), rb.size()) << "u=" << u;
    auto ia = ra.begin();
    auto ib = rb.begin();
    for (std::size_t i = 0; i < ra.size(); ++i, ++ia, ++ib) {
      ASSERT_EQ(*ia, *ib) << "u=" << u << " i=" << i;
    }
    // Bulk decode and random access agree with iteration.
    decoded.assign(rb.size(), graph::kInvalidNode);
    if (!rb.empty()) {
      ASSERT_EQ(b.decode_links(u, decoded.data()), rb.size()) << "u=" << u;
    }
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i], decoded[i]) << "u=" << u << " i=" << i;
      ASSERT_EQ(rb[i], decoded[i]) << "u=" << u << " i=" << i;
    }
    // Long-link suffix.
    const auto la = a.long_neighbors(u);
    const auto lb = b.long_neighbors(u);
    ASSERT_EQ(la.size(), lb.size()) << "u=" << u;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i], lb[i]) << "u=" << u << " i=" << i;
    }
  }
  // has_link spot checks: every real link plus a few absent ones.
  util::Rng probe(977);
  for (int t = 0; t < 200; ++t) {
    const auto u = static_cast<NodeId>(probe.next_below(a.size()));
    const auto v = static_cast<NodeId>(probe.next_below(a.size()));
    ASSERT_EQ(a.has_link(u, v), b.has_link(u, v)) << "u=" << u << " v=" << v;
    if (a.out_degree(u) > 0) {
      const NodeId w = a.neighbors(u)[probe.next_below(a.out_degree(u))];
      ASSERT_TRUE(b.has_link(u, w)) << "u=" << u << " w=" << w;
    }
  }
}

/// Failure views drawn from one seed per layout: slot numbering and node
/// count match, so the draws land identically.
std::vector<std::pair<std::string, std::pair<FailureView, FailureView>>>
view_pairs(const LayoutPair& p, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::pair<FailureView, FailureView>>> out;
  {
    out.emplace_back("alive", std::make_pair(FailureView::all_alive(p.standard),
                                             FailureView::all_alive(p.compact)));
  }
  {
    util::Rng ra(seed);
    util::Rng rb(seed);
    out.emplace_back(
        "nodes",
        std::make_pair(FailureView::with_node_failures(p.standard, 0.3, ra),
                       FailureView::with_node_failures(p.compact, 0.3, rb)));
  }
  {
    util::Rng ra(seed + 1);
    util::Rng rb(seed + 1);
    out.emplace_back(
        "links",
        std::make_pair(FailureView::with_link_failures(p.standard, 0.6, ra),
                       FailureView::with_link_failures(p.compact, 0.6, rb)));
  }
  {
    util::Rng ra(seed + 2);
    util::Rng rb(seed + 2);
    auto va = FailureView::with_link_failures(p.standard, 0.7, ra);
    auto vb = FailureView::with_link_failures(p.compact, 0.7, rb);
    for (NodeId u = 0; u < p.standard.size(); ++u) {
      if (ra.next_bool(0.25)) va.kill_node(u);
      if (rb.next_bool(0.25)) vb.kill_node(u);
    }
    out.emplace_back("both", std::make_pair(std::move(va), std::move(vb)));
  }
  return out;
}

core::Router scalar_router(const OverlayGraph& g, const FailureView& view,
                           core::RouterConfig cfg) {
  cfg.force_scalar = true;
  return core::Router(g, view, cfg);
}

/// candidates() / select_candidate bit-identity at every rank up to the
/// degree: the standard candidates() list is the reference; the standard and
/// compact SIMD and scalar paths must all agree with it.
void check_layout_selection(const LayoutPair& p, const FailureView& va,
                            const FailureView& vb, core::RouterConfig cfg,
                            std::uint64_t seed, int trials,
                            const std::string& label) {
  const core::Router std_simd(p.standard, va, cfg);
  const core::Router std_scalar = scalar_router(p.standard, va, cfg);
  const core::Router cmp_simd(p.compact, vb, cfg);
  const core::Router cmp_scalar = scalar_router(p.compact, vb, cfg);
  util::Rng pick(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const auto u = static_cast<NodeId>(pick.next_below(p.standard.size()));
    const auto t =
        p.standard.position(static_cast<NodeId>(pick.next_below(p.standard.size())));
    const auto reference = std_scalar.candidates(u, t);
    const auto compact_list = cmp_scalar.candidates(u, t);
    ASSERT_EQ(compact_list, reference) << label << " u=" << u << " t=" << t;
    for (std::size_t rank = 0; rank <= p.standard.out_degree(u); ++rank) {
      const NodeId want =
          rank < reference.size() ? reference[rank] : graph::kInvalidNode;
      ASSERT_EQ(std_scalar.select_candidate(u, t, rank), want)
          << label << "/std-scalar u=" << u << " t=" << t << " rank=" << rank;
      ASSERT_EQ(std_simd.select_candidate(u, t, rank), want)
          << label << "/std-simd u=" << u << " t=" << t << " rank=" << rank;
      ASSERT_EQ(cmp_simd.select_candidate(u, t, rank), want)
          << label << "/cmp-simd u=" << u << " t=" << t << " rank=" << rank;
      ASSERT_EQ(cmp_scalar.select_candidate(u, t, rank), want)
          << label << "/cmp-scalar u=" << u << " t=" << t << " rank=" << rank;
    }
  }
}

/// route() / route_batch() bit-identity across layouts and dispatches.
void check_layout_routes(const LayoutPair& p, const FailureView& va,
                         const FailureView& vb, core::RouterConfig cfg,
                         std::uint64_t seed, std::size_t messages,
                         const std::string& label) {
  const core::Router std_simd(p.standard, va, cfg);
  const core::Router cmp_simd(p.compact, vb, cfg);
  const core::Router cmp_scalar = scalar_router(p.compact, vb, cfg);
  util::Rng pick(seed);
  std::vector<core::Query> queries(messages);
  for (auto& q : queries) {
    q = {static_cast<NodeId>(pick.next_below(p.standard.size())),
         p.standard.position(
             static_cast<NodeId>(pick.next_below(p.standard.size())))};
  }
  for (std::size_t i = 0; i < messages; ++i) {
    util::Rng a(seed + 1 + i);
    util::Rng b(seed + 1 + i);
    util::Rng c(seed + 1 + i);
    const auto want = std_simd.route(queries[i].src, queries[i].target, a);
    const auto got = cmp_simd.route(queries[i].src, queries[i].target, b);
    const auto got_scalar =
        cmp_scalar.route(queries[i].src, queries[i].target, c);
    ASSERT_EQ(got.status, want.status) << label << " query=" << i;
    ASSERT_EQ(got.hops, want.hops) << label << " query=" << i;
    ASSERT_EQ(got.backtracks, want.backtracks) << label << " query=" << i;
    ASSERT_EQ(got.reroutes, want.reroutes) << label << " query=" << i;
    ASSERT_EQ(got_scalar.status, want.status) << label << " query=" << i;
    ASSERT_EQ(got_scalar.hops, want.hops) << label << " query=" << i;
  }
  for (const std::size_t width : {std::size_t{1}, std::size_t{32}}) {
    core::BatchConfig batch;
    batch.width = width;
    std::vector<core::RouteResult> want(messages);
    std::vector<core::RouteResult> got(messages);
    util::Rng a(seed + 7);
    util::Rng b(seed + 7);
    std_simd.route_batch(queries, want, a, batch);
    cmp_simd.route_batch(queries, got, b, batch);
    for (std::size_t i = 0; i < messages; ++i) {
      ASSERT_EQ(got[i].status, want[i].status)
          << label << " width=" << width << " query=" << i;
      ASSERT_EQ(got[i].hops, want[i].hops)
          << label << " width=" << width << " query=" << i;
    }
  }
}

TEST(CompactOverlay, StructuralEquivalenceRing) {
  check_structure(ring_pair(4096, 12, 91));
}

TEST(CompactOverlay, StructuralEquivalenceTorus) {
  check_structure(torus_pair(23, 6, 93));
}

TEST(CompactOverlay, EscapeEncodedFarTargets) {
  // Uniform long links on a 200k ring put most deltas far outside the
  // one-word zigzag range, so escaped slots are the common case here rather
  // than a corner.
  const auto p = ring_pair(200000, 4, 95, /*exponent=*/0.0);
  std::size_t escapes = 0;
  for (NodeId u = 0; u < p.compact.size(); ++u) {
    const auto& h = p.compact.cheader(u);
    const std::uint16_t* slots = p.compact.enc_stream(h);
    const std::uint16_t* exc = p.compact.enc_exceptions(h);
    ASSERT_EQ(exc, slots + h.degree) << "u=" << u;
    const std::size_t node_escapes = graph::detail::count_escapes(slots, h.degree);
    escapes += node_escapes;
    // degree slot words + two words per escape, padded to an even count:
    // the next node's stream starts right behind.
    const std::size_t words = h.degree + 2 * node_escapes;
    ASSERT_EQ(2 * std::size_t{p.compact.cheader(u + 1).enc},
              2 * std::size_t{h.enc} + words + (words & 1))
        << "u=" << u;
    // Slot i holds the zigzag delta or the escape marker; the escaped
    // slots' absolutes follow in slot order, low half first.
    const auto want = p.standard.neighbors(u);
    for (std::uint32_t i = 0; i < h.degree; ++i) {
      if (slots[i] == graph::detail::kEscapeWord) {
        ASSERT_EQ(exc[0] | (std::uint32_t{exc[1]} << 16), want[i])
            << "u=" << u << " i=" << i;
        exc += 2;
      } else {
        ASSERT_EQ(graph::detail::decode_slot(slots[i], nullptr, u), want[i])
            << "u=" << u << " i=" << i;
      }
    }
  }
  ASSERT_GT(escapes, p.compact.size());  // far targets dominate
  check_structure(p);
  const auto views = view_pairs(p, 96);
  const auto& [name, pair] = views[1];  // node failures
  check_layout_routes(p, pair.first, pair.second, {}, 97, 32,
                      "escape/" + name);
}

/// Long links of one decode case: `degree` targets next to u (one-word
/// deltas), except the positions flagged in `far`, which point half a ring
/// away and so escape.
struct DecodeCase {
  std::size_t degree;
  std::vector<bool> far;
};

std::vector<DecodeCase> decode_cases() {
  std::vector<DecodeCase> cases;
  for (const std::size_t d : {0, 1, 15, 16, 17, 32, 33}) {
    cases.push_back({d, std::vector<bool>(d, false)});  // no escape
    cases.push_back({d, std::vector<bool>(d, true)});   // every slot escaped
    DecodeCase alternating{d, std::vector<bool>(d, false)};
    for (std::size_t i = 0; i < d; i += 2) alternating.far[i] = true;
    cases.push_back(alternating);
    for (std::size_t at = 0; at < d; ++at) {  // one escape at each position
      DecodeCase one{d, std::vector<bool>(d, false)};
      one.far[at] = true;
      cases.push_back(one);
    }
    if (d >= 18) {  // a run of escapes straddling the 16-slot group edge
      DecodeCase edge{d, std::vector<bool>(d, false)};
      for (std::size_t i = 14; i < 18; ++i) edge.far[i] = true;
      cases.push_back(edge);
    }
  }
  return cases;
}

TEST(CompactOverlay, SimdDecodeMatchesNeighbors) {
  const std::uint64_t n = 1u << 17;
  const auto cases = decode_cases();
  // Node 0 is the hub past the SIMD buffer; case k sits on node 1 + k.
  const std::size_t hub_degree = core::kSimdDecodeCap + 44;
  auto build = [&](EdgeLayout layout) {
    graph::GraphBuilder builder{metric::Space::ring(n)};
    for (std::size_t i = 0; i < hub_degree; ++i) {
      builder.add_long_link(0, static_cast<NodeId>(i % 3 == 0 ? n / 2 + i : 1 + i));
    }
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const auto u = static_cast<NodeId>(1 + k);
      for (std::size_t i = 0; i < cases[k].degree; ++i) {
        const std::uint64_t v = cases[k].far[i] ? u + n / 2 + i : u + 1 + i;
        builder.add_long_link(u, static_cast<NodeId>(v % n));
      }
    }
    return builder.freeze(layout);
  };
  const LayoutPair p{build(EdgeLayout::kStandard), build(EdgeLayout::kCompact)};
  check_structure(p);
  const bool simd = core::simd_decode_supported();
  for (NodeId u = 0; u <= cases.size(); ++u) {
    const std::size_t degree = p.compact.out_degree(u);
    ASSERT_EQ(degree, u == 0 ? hub_degree : cases[u - 1].degree);
    if (u > 0) {
      std::size_t far = 0;
      for (const bool f : cases[u - 1].far) far += f ? 1 : 0;
      const auto& h = p.compact.cheader(u);
      ASSERT_EQ(graph::detail::count_escapes(p.compact.enc_stream(h), degree), far)
          << "u=" << u;
    }
    // Sentinels past the degree catch a masked store writing beyond it.
    std::vector<NodeId> out(degree + 16, graph::kInvalidNode - 1);
    const bool vector_ran = core::decode_links_simd(p.compact, u, out.data());
    EXPECT_EQ(vector_ran, simd && degree <= core::kSimdDecodeCap) << "u=" << u;
    const auto want = p.standard.neighbors(u);
    for (std::size_t i = 0; i < degree; ++i) {
      ASSERT_EQ(out[i], want[i]) << "u=" << u << " i=" << i;
    }
    for (std::size_t i = degree; i < out.size(); ++i) {
      ASSERT_EQ(out[i], graph::kInvalidNode - 1) << "u=" << u << " i=" << i;
    }
  }
}

TEST(CompactOverlay, MemoryAtMostSixtyPercentOfStandard) {
  const auto p = ring_pair(65536, 16, 101);
  const auto breakdown = p.compact.memory_breakdown();
  EXPECT_EQ(breakdown.tail, 0u);
  EXPECT_EQ(breakdown.short_degrees, 0u);
  EXPECT_GT(breakdown.headers, 0u);
  EXPECT_GT(breakdown.edges, 0u);
  // Same adjacency, so the analytic standard cost matches the real standard
  // graph (both dense: no positions term).
  EXPECT_EQ(p.compact.standard_layout_bytes(), p.standard.standard_layout_bytes());
  EXPECT_EQ(p.standard.standard_layout_bytes(), p.standard.memory_bytes());
  EXPECT_LE(static_cast<double>(p.compact.memory_bytes()),
            0.6 * static_cast<double>(p.compact.standard_layout_bytes()));
}

TEST(CompactOverlay, SelectionEquivalenceOneDimensional) {
  for (const auto kind :
       {metric::Space::Kind::kLine, metric::Space::Kind::kRing}) {
    const std::string space =
        kind == metric::Space::Kind::kLine ? "line" : "ring";
    const auto p = ring_pair(4096, 12, 103, 1.0, kind);
    for (auto& [name, views] : view_pairs(p, 104)) {
      for (const auto knowledge :
           {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
        core::RouterConfig cfg;
        cfg.knowledge = knowledge;
        const std::string label =
            space + "/" + name +
            (knowledge == core::Knowledge::kStale ? "/stale" : "/live");
        check_layout_selection(p, views.first, views.second, cfg, 105, 400,
                               label);
      }
    }
  }
}

TEST(CompactOverlay, SelectionEquivalenceTorus) {
  const auto p = torus_pair(45, 8, 107);
  for (auto& [name, views] : view_pairs(p, 108)) {
    for (const auto knowledge :
         {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
      core::RouterConfig cfg;
      cfg.knowledge = knowledge;
      const std::string label =
          "torus/" + name +
          (knowledge == core::Knowledge::kStale ? "/stale" : "/live");
      check_layout_selection(p, views.first, views.second, cfg, 109, 400, label);
    }
  }
}

TEST(CompactOverlay, RouteAndBatchEquivalence) {
  const auto ring = ring_pair(4096, 12, 111);
  const auto torus = torus_pair(45, 8, 112);
  for (const LayoutPair* p : {&ring, &torus}) {
    for (auto& [name, views] : view_pairs(*p, 113)) {
      for (const auto knowledge :
           {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
        core::RouterConfig cfg;
        cfg.knowledge = knowledge;
        check_layout_routes(*p, views.first, views.second, cfg, 114, 48,
                            (p == &ring ? "ring/" : "torus/") + name);
      }
    }
  }
}

TEST(CompactOverlay, KillReviveSlotEquivalence) {
  // The same slot-keyed kill/revive sequence applied to views over both
  // layouts: slot numbering is shared, so liveness stays identical and so
  // does every selection.
  const auto p = ring_pair(2048, 10, 117);
  auto va = FailureView::all_alive(p.standard);
  auto vb = FailureView::all_alive(p.compact);
  util::Rng rng(118);
  for (int round = 0; round < 600; ++round) {
    const auto u = static_cast<NodeId>(rng.next_below(p.standard.size()));
    if (rng.next_bool(0.4)) {
      if (rng.next_bool(0.5)) {
        va.kill_node(u);
        vb.kill_node(u);
      } else {
        va.revive_node(u);
        vb.revive_node(u);
      }
    } else if (p.standard.out_degree(u) > 0) {
      const std::size_t i = rng.next_below(p.standard.out_degree(u));
      if (rng.next_bool(0.5)) {
        va.kill_link(u, i);
        vb.kill_link(u, i);
      } else {
        va.revive_link(u, i);
        vb.revive_link(u, i);
      }
    }
    if (round % 200 == 199) {
      for (NodeId n = 0; n < p.standard.size(); ++n) {
        ASSERT_EQ(va.node_alive(n), vb.node_alive(n)) << "node " << n;
      }
      for (std::size_t s = 0; s < p.standard.edge_slots(); ++s) {
        ASSERT_EQ(va.link_alive_at(s), vb.link_alive_at(s)) << "slot " << s;
      }
    }
  }
  check_layout_selection(p, va, vb, {}, 119, 400, "killrevive");
  check_layout_routes(p, va, vb, {}, 120, 48, "killrevive");
}

TEST(CompactOverlay, HubPastSimdDecodeBuffer) {
  // One node's degree beyond the 256-entry SIMD decode buffer: the compact
  // AVX-512 path must hand the hub to the scalar fallback and still match.
  const std::uint64_t n = 4096;
  auto build = [&](EdgeLayout layout) {
    graph::GraphBuilder builder{metric::Space::ring(n)};
    builder.wire_short_links();
    util::Rng rng(121);
    for (int i = 0; i < 320; ++i) {
      NodeId v = 0;
      while (v == 0) v = static_cast<NodeId>(rng.next_below(n));
      builder.add_long_link(0, v);
    }
    return builder.freeze(layout);
  };
  const LayoutPair p{build(EdgeLayout::kStandard), build(EdgeLayout::kCompact)};
  ASSERT_GT(p.compact.out_degree(0), 256u);
  check_structure(p);
  util::Rng ra(122);
  util::Rng rb(122);
  auto va = FailureView::with_node_failures(p.standard, 0.4, ra);
  auto vb = FailureView::with_node_failures(p.compact, 0.4, rb);
  for (std::size_t i = 0; i < p.standard.out_degree(0); ++i) {
    const bool kill_a = ra.next_bool(0.3);
    const bool kill_b = rb.next_bool(0.3);
    ASSERT_EQ(kill_a, kill_b);
    if (kill_a) {
      va.kill_link(0, i);
      vb.kill_link(0, i);
    }
  }
  const core::Router std_scalar = scalar_router(p.standard, va, {});
  const core::Router cmp_simd(p.compact, vb, {});
  const core::Router cmp_scalar = scalar_router(p.compact, vb, {});
  util::Rng pick(123);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto t = static_cast<metric::Point>(pick.next_below(n));
    const auto reference = std_scalar.candidates(0, t);
    // Every rank on a few targets; the scan is O(rank * degree) per call.
    const std::size_t ranks = trial < 8 ? reference.size() + 1 : 1;
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      const NodeId want =
          rank < reference.size() ? reference[rank] : graph::kInvalidNode;
      ASSERT_EQ(cmp_simd.select_candidate(0, t, rank), want)
          << "t=" << t << " rank=" << rank;
      ASSERT_EQ(cmp_scalar.select_candidate(0, t, rank), want)
          << "t=" << t << " rank=" << rank;
    }
  }
}

}  // namespace
}  // namespace p2p
