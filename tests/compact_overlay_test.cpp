// Pins the compact frozen representation against the standard CSR layout:
//  * a graph built twice from the same (spec, seed) — once kStandard, once
//    kCompact — has identical structure through the shared query surface
//    (neighbors / operator[] / long_neighbors / decode_links / edge_base /
//    edge_slots / out_degree / short_degree / has_link);
//  * the slot + exception stream round-trips escaped (far) targets, not
//    just the one-word deltas small rings produce: each node's stream is its
//    slot words followed by the escaped absolutes in slot order;
//  * the AVX-512 decode equals neighbors() at degrees 0..33 across the
//    16-slot group edge, with an escape at every slot position, and on a
//    300-link hub: it decodes in registers, so every degree vectorizes;
//  * every compact header's escape count is the node's escaped-slot count,
//    saturated at kEscapesSaturated;
//  * slot numbering matches: the same kill/revive sequence applied to views
//    over both layouts leaves the same nodes and slots alive;
//  * compact graphs cost <= 60% of the standard layout's bytes at the
//    paper's lg n link density.
// That both layouts route identically is differential_test's job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
                        EdgeLayout layout, double exponent) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.exponent = exponent;
  spec.bidirectional = true;  // reverse links push hub degrees past kInlineEdges
  spec.layout = layout;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

LayoutPair ring_pair(std::uint64_t n, std::size_t links, std::uint64_t seed,
                     double exponent = 1.0) {
  return {build_ring(n, links, seed, EdgeLayout::kStandard, exponent),
          build_ring(n, links, seed, EdgeLayout::kCompact, exponent)};
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

/// Every compact header's escape count (which sizes the select's load
/// extent) is the node's escaped-slot count, saturated; the sentinel's is 0.
void check_escape_counts(const OverlayGraph& g) {
  for (NodeId u = 0; u < g.size(); ++u) {
    const auto& h = g.cheader(u);
    ASSERT_EQ(h.escapes, std::min<std::size_t>(
                             graph::detail::count_escapes(g.enc_stream(h), h.degree),
                             OverlayGraph::kEscapesSaturated))
        << "u=" << u;
  }
  ASSERT_EQ(g.cheader(static_cast<NodeId>(g.size())).escapes, 0u);
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
  check_escape_counts(b);
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
  // Node 0 is a 300-link hub (nineteen decode groups); case k sits on
  // node 1 + k.
  const std::size_t hub_degree = 300;
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
    EXPECT_EQ(vector_ran, simd) << "u=" << u;
    const auto want = p.standard.neighbors(u);
    for (std::size_t i = 0; i < degree; ++i) {
      ASSERT_EQ(out[i], want[i]) << "u=" << u << " i=" << i;
    }
    for (std::size_t i = degree; i < out.size(); ++i) {
      ASSERT_EQ(out[i], graph::kInvalidNode - 1) << "u=" << u << " i=" << i;
    }
  }
}

TEST(CompactOverlay, SaturatedEscapeCountSelectsLikeCandidates) {
  // A hub whose ~70 000 escaped links overflow the header's u16 count: the
  // count saturates, the select's load extent falls back to the next
  // node's stream start, and every router still picks what candidates()
  // lists.
  const std::uint64_t n = std::uint64_t{1} << 17;
  const std::size_t far_links = 70000;
  auto build = [&](EdgeLayout layout) {
    graph::GraphBuilder builder{metric::Space::ring(n)};
    builder.wire_short_links();
    for (std::size_t i = 0; i < far_links; ++i) {
      builder.add_long_link(0, static_cast<NodeId>(n / 4 + i));  // past the zigzag range
    }
    builder.add_long_link(1, 2);
    return builder.freeze(layout);
  };
  // check_structure's random access is O(escapes) per slot here, so only
  // the headers are checked directly.
  const LayoutPair p{build(EdgeLayout::kStandard), build(EdgeLayout::kCompact)};
  ASSERT_EQ(p.compact.link_count(), p.standard.link_count());
  check_escape_counts(p.compact);
  const auto& hub = p.compact.cheader(0);
  ASSERT_GT(graph::detail::count_escapes(p.compact.enc_stream(hub), hub.degree),
            std::size_t{OverlayGraph::kEscapesSaturated});
  ASSERT_EQ(hub.escapes, OverlayGraph::kEscapesSaturated);

  util::Rng rng(404);
  for (const double dead : {0.0, 0.3}) {
    const FailureView std_view = FailureView::with_node_failures(p.standard, dead, rng);
    const FailureView cmp_view = [&] {
      FailureView v = FailureView::all_alive(p.compact);
      for (NodeId u = 0; u < p.compact.size(); ++u) {
        if (!std_view.node_alive(u)) v.kill_node(u);
      }
      return v;
    }();
    const core::Router reference(p.standard, std_view, {.force_scalar = true});
    const core::Router routers[] = {core::Router(p.standard, std_view),
                                    core::Router(p.compact, cmp_view)};
    for (const core::Router& router : routers) {
      EXPECT_EQ(router.simd_eligible(), core::simd_decode_supported());
    }
    for (int probe = 0; probe < 6; ++probe) {
      const auto target = static_cast<metric::Point>(
          probe % 2 == 0 ? n / 4 + rng.next_below(far_links) : rng.next_below(n));
      const std::vector<NodeId> want = reference.candidates(0, target);
      for (std::size_t rank = 0; rank < 4; ++rank) {
        const NodeId expect = rank < want.size() ? want[rank] : graph::kInvalidNode;
        for (const core::Router& router : routers) {
          ASSERT_EQ(router.select_candidate(0, target, rank), expect)
              << "dead=" << dead << " target=" << target << " rank=" << rank
              << " compact=" << router.graph().compact();
        }
      }
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

TEST(CompactOverlay, KillReviveSlotEquivalence) {
  // The same slot-keyed kill/revive sequence applied to views over both
  // layouts: slot numbering is shared, so liveness stays identical.
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
}

}  // namespace
}  // namespace p2p
