// Unit + equivalence tests for the churn delta log (churn/churn_log.h):
// recording normalization, apply/revert inversion, and the PR acceptance
// invariant — a replayed ChurnLog prefix is bit-identical to a from-scratch
// FailureView build at the same epoch, at every epoch, in both directions.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace p2p::churn {
namespace {

using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph make_graph(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  return graph::build_overlay(spec, rng);
}

/// Full liveness-state equality: every node bit, every link slot bit, the
/// alive count and the epoch cursor.
void expect_views_identical(const FailureView& got, const FailureView& want,
                            const std::string& label) {
  ASSERT_EQ(&got.graph(), &want.graph()) << label;
  EXPECT_EQ(got.epoch(), want.epoch()) << label;
  ASSERT_EQ(got.alive_count(), want.alive_count()) << label;
  const auto& g = got.graph();
  for (NodeId u = 0; u < g.size(); ++u) {
    ASSERT_EQ(got.node_alive(u), want.node_alive(u)) << label << " node " << u;
  }
  for (std::size_t slot = 0; slot < g.edge_slots(); ++slot) {
    ASSERT_EQ(got.link_alive_at(slot), want.link_alive_at(slot))
        << label << " slot " << slot;
  }
}

TEST(ChurnLog, RecordsNormalizedBatches) {
  const auto g = make_graph(32, 2, 1);
  ChurnLog log(g);
  log.kill_node(3);
  log.kill_node(3);  // duplicate: no-op against the shadow
  log.kill_node(5);
  EXPECT_EQ(log.staged_changes(), 2u);
  log.revive_node(7);  // alive already: dropped
  EXPECT_EQ(log.staged_changes(), 2u);
  EXPECT_EQ(log.commit(1.0), 1u);
  EXPECT_TRUE(log.staged_empty());

  const auto& d = log.delta(0);
  EXPECT_EQ(d.when, 1.0);
  EXPECT_EQ(d.node_kills.size(), 2u);
  EXPECT_TRUE(d.node_revives.empty());
  EXPECT_EQ(log.total_changes(), 2u);
}

TEST(ChurnLog, KillThenReviveInOneBatchCancels) {
  const auto g = make_graph(32, 2, 2);
  ChurnLog log(g);
  log.kill_node(4);
  log.revive_node(4);
  EXPECT_TRUE(log.staged_empty());
  log.kill_link(0, 1);
  log.revive_link(0, 1);
  EXPECT_TRUE(log.staged_empty());
  // ... and the state machine still tracks: the net effect is nothing, so a
  // second kill is a real change again.
  log.kill_node(4);
  EXPECT_EQ(log.staged_changes(), 1u);
}

TEST(ChurnLog, CommitTimesMustBeMonotone) {
  const auto g = make_graph(16, 1, 3);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(5.0);
  log.kill_node(2);
  EXPECT_THROW(log.commit(4.0), std::invalid_argument);
}

TEST(ChurnLog, ApplyAdvancesEpochAndFlipsBits) {
  const auto g = make_graph(64, 3, 4);
  ChurnLog log(g);
  log.kill_node(10);
  log.kill_link(2, 0);
  log.commit(1.0);
  log.revive_node(10);
  log.commit(2.0);

  FailureView view = log.baseline();
  EXPECT_EQ(view.epoch(), 0u);
  view.apply(log.delta(0));
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_FALSE(view.node_alive(10));
  EXPECT_FALSE(view.link_alive(2, 0));
  EXPECT_EQ(view.alive_count(), g.size() - 1);
  view.apply(log.delta(1));
  EXPECT_EQ(view.epoch(), 2u);
  EXPECT_TRUE(view.node_alive(10));
  EXPECT_FALSE(view.link_alive(2, 0));  // link stays dead
}

TEST(ChurnLog, ApplyRejectsUnnormalizedDeltas) {
  const auto g = make_graph(32, 2, 5);
  FailureView view = FailureView::all_alive(g);
  FailureDelta bogus;
  bogus.node_revives.push_back(3);  // node 3 is alive
  EXPECT_THROW(view.apply(bogus), std::invalid_argument);
  bogus = {};
  bogus.node_kills.push_back(3);
  view.apply(bogus);
  EXPECT_THROW(view.apply(bogus), std::invalid_argument);  // already dead
}

TEST(ChurnLog, RevertIsExactInverse) {
  const auto g = make_graph(64, 3, 6);
  ChurnLog log(g);
  util::Rng rng(7);
  for (int e = 0; e < 20; ++e) {
    for (int k = 0; k < 5; ++k) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      if (rng.next_bool(0.5)) {
        log.kill_node(u);
      } else {
        log.revive_node(u);
      }
    }
    log.commit(static_cast<double>(e));
  }

  FailureView view = log.baseline();
  log.seek(view, log.size());
  EXPECT_EQ(view.epoch(), log.size());
  log.seek(view, 0);
  expect_views_identical(view, log.baseline(), "after full round trip");
}

TEST(ChurnLog, RevertRejectsWrongDelta) {
  const auto g = make_graph(32, 2, 8);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(1.0);
  log.kill_node(2);
  log.commit(2.0);
  FailureView view = log.baseline();
  EXPECT_THROW(view.revert(log.delta(0)), std::invalid_argument);  // at epoch 0
  view.apply(log.delta(0));
  EXPECT_THROW(view.revert(log.delta(1)), std::invalid_argument);  // wrong batch
  view.revert(log.delta(0));
  EXPECT_EQ(view.epoch(), 0u);
}

// The acceptance-criteria equivalence: a replayed prefix must be
// bit-identical to a from-scratch build at the same epoch — for every epoch
// of a mixed node+link trace, seeking forward and backward.
TEST(ChurnLog, SeekMatchesMaterializeAtEveryEpoch) {
  const auto g = make_graph(256, 4, 9);
  ChurnLog log(g);
  util::Rng rng(10);
  for (int e = 0; e < 40; ++e) {
    for (int k = 0; k < 6; ++k) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      switch (rng.next_below(4)) {
        case 0:
          log.kill_node(u);
          break;
        case 1:
          log.revive_node(u);
          break;
        case 2:
          log.kill_link(u, rng.next_below(g.out_degree(u)));
          break;
        default:
          log.revive_link(u, rng.next_below(g.out_degree(u)));
          break;
      }
    }
    log.commit(static_cast<double>(e));
  }
  ASSERT_GT(log.total_changes(), 0u);

  FailureView view = log.baseline();
  for (std::size_t e = 0; e <= log.size(); ++e) {
    log.seek(view, e);
    expect_views_identical(view, log.materialize(e),
                           "forward epoch " + std::to_string(e));
  }
  // Descend in strides so the revert path is exercised against every target.
  for (std::size_t e = log.size() + 1; e-- > 0;) {
    log.seek(view, e);
    expect_views_identical(view, log.materialize(e),
                           "backward epoch " + std::to_string(e));
  }
}

TEST(ChurnLog, SeekValidatesEpochAndGraph) {
  const auto g = make_graph(32, 2, 11);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(1.0);
  FailureView view = log.baseline();
  EXPECT_THROW(log.seek(view, 2), std::invalid_argument);  // beyond the log
  const auto other = make_graph(32, 2, 12);
  FailureView foreign = FailureView::all_alive(other);
  EXPECT_THROW(log.seek(foreign, 0), std::invalid_argument);
}

TEST(ChurnLog, NonZeroBaselinesReplayFromTheirOwnState) {
  const auto g = make_graph(128, 3, 13);
  util::Rng rng(14);
  const auto baseline = FailureView::with_node_failures(g, 0.3, rng);
  ChurnLog log(baseline);
  // Reviving a baseline-dead node is a real change; killing it is a no-op.
  NodeId dead = graph::kInvalidNode;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!baseline.node_alive(u)) {
      dead = u;
      break;
    }
  }
  ASSERT_NE(dead, graph::kInvalidNode);
  log.kill_node(dead);
  EXPECT_TRUE(log.staged_empty());
  log.revive_node(dead);
  EXPECT_EQ(log.staged_changes(), 1u);
  log.commit(1.0);

  FailureView view = baseline;
  log.seek(view, 1);
  EXPECT_TRUE(view.node_alive(dead));
  EXPECT_EQ(view.alive_count(), baseline.alive_count() + 1);
  expect_views_identical(view, log.materialize(1), "non-zero baseline");
}

TEST(ChurnLog, RejectsMidLogBaselines) {
  const auto g = make_graph(32, 2, 15);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(1.0);
  FailureView advanced = log.materialize(1);
  EXPECT_THROW(ChurnLog{advanced}, std::invalid_argument);
}

}  // namespace
}  // namespace p2p::churn
