// Pins what the failure-aware (masked) SIMD candidate scan reads:
// FailureView's link-liveness words and its node-dead words, read the way
// the kernel gathers them (32-bit word u >> 5, bit u & 31), agree
// bit-for-bit with the scalar link_alive_at/node_alive queries, through
// manual kills/revives and delta-log apply/revert. That the masked kernels
// select exactly what candidates() lists is differential_test's job.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p {
namespace {

using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph ring_overlay(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = true;  // reverse links push hub degrees past kInlineEdges
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

/// Node u's dead bit as the vectorized scan reads it: the 32-bit word
/// u >> 5 of node_dead_words(), bit u & 31.
bool gathered_dead_bit(const FailureView& view, NodeId u) {
  std::uint32_t word = 0;
  std::memcpy(&word, reinterpret_cast<const char*>(view.node_dead_words()) + 4 * (u >> 5),
              sizeof word);
  return (word >> (u & 31)) & 1u;
}

TEST(MaskedScan, SidebandsMatchScalarQueries) {
  const auto g = ring_overlay(512, 6, 21);
  auto view = FailureView::all_alive(g);
  EXPECT_EQ(view.node_dead_words(), nullptr);
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
  ASSERT_NE(view.node_dead_words(), nullptr);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(gathered_dead_bit(view, u), !view.node_alive(u)) << u;
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
      EXPECT_EQ(view.node_dead_words(), nullptr);
      return;
    }
    ASSERT_NE(view.node_dead_words(), nullptr);
    for (NodeId u = 0; u < g.size(); ++u) {
      ASSERT_EQ(gathered_dead_bit(view, u), !view.node_alive(u))
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

}  // namespace
}  // namespace p2p
