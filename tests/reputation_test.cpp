// Tests for failure::ReputationTable (outcome-driven distrust scores) and
// the Router's trust mask — the third byte sideband riding the masked-SIMD
// candidate scan next to link/node liveness. That the vectorized and scalar
// kernels mask distrust exactly as candidates() does is differential_test's
// job.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "failure/reputation.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::failure {
namespace {

using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph ring_overlay(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = true;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

// ---------------------------------------------------------------------------
// Score mechanics

TEST(ReputationTable, StartsFullyTrusted) {
  const auto g = ring_overlay(64, 2, 1);
  const ReputationTable table(g);
  EXPECT_EQ(table.distrusted_count(), 0u);
  EXPECT_EQ(table.epoch(), 0u);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_DOUBLE_EQ(table.penalty(u), 0.0);
    EXPECT_TRUE(table.trusted(u));
    EXPECT_EQ(table.trusted_bytes()[u], 1);
  }
}

TEST(ReputationTable, PenaltiesAccumulateAndCrossTheThreshold) {
  const auto g = ring_overlay(64, 2, 2);
  ReputationTable table(g);
  const auto& cfg = table.config();

  table.record(5, Observation::kTimedOut);
  EXPECT_DOUBLE_EQ(table.penalty(5), cfg.penalty_timeout);
  EXPECT_TRUE(table.trusted(5));

  table.record(5, Observation::kDiedAtHop);
  EXPECT_DOUBLE_EQ(table.penalty(5), cfg.penalty_timeout + cfg.penalty_died);
  EXPECT_TRUE(table.trusted(5));  // 3.25 < 4.0

  table.record(5, Observation::kRegressed);
  EXPECT_GE(table.penalty(5), cfg.distrust_threshold);
  EXPECT_FALSE(table.trusted(5));
  EXPECT_EQ(table.trusted_bytes()[5], 0);
  EXPECT_EQ(table.distrusted_count(), 1u);

  // A reward pulls the penalty back down; enough of them restore trust.
  table.record(5, Observation::kDelivered);
  EXPECT_DOUBLE_EQ(table.penalty(5),
                   cfg.penalty_timeout + cfg.penalty_died +
                       cfg.penalty_regressed - cfg.reward_delivered);
  for (int i = 0; i < 64; ++i) table.record(5, Observation::kDelivered);
  EXPECT_DOUBLE_EQ(table.penalty(5), 0.0);  // floored, never negative
  EXPECT_TRUE(table.trusted(5));
  EXPECT_EQ(table.distrusted_count(), 0u);
}

TEST(ReputationTable, PenaltySaturatesAtTheCap) {
  const auto g = ring_overlay(64, 2, 3);
  ReputationTable table(g);
  for (int i = 0; i < 20; ++i) table.record(9, Observation::kDiedAtHop);
  EXPECT_DOUBLE_EQ(table.penalty(9), table.config().max_penalty);
  EXPECT_FALSE(table.trusted(9));
}

TEST(ReputationTable, RewardOnCleanNodeStaysAtZero) {
  const auto g = ring_overlay(64, 2, 4);
  ReputationTable table(g);
  table.record(7, Observation::kDelivered);
  EXPECT_DOUBLE_EQ(table.penalty(7), 0.0);
  EXPECT_TRUE(table.trusted(7));
}

TEST(ReputationTable, DecayRecoversTrustAndSnapsToExactZero) {
  const auto g = ring_overlay(64, 2, 5);
  ReputationTable table(g);
  for (int i = 0; i < 20; ++i) table.record(3, Observation::kDiedAtHop);
  ASSERT_DOUBLE_EQ(table.penalty(3), 16.0);
  ASSERT_FALSE(table.trusted(3));

  // 16 -> 8 -> 4: at the threshold is still distrusted (trust is strict <).
  table.decay_epoch();
  table.decay_epoch();
  EXPECT_DOUBLE_EQ(table.penalty(3), 4.0);
  EXPECT_FALSE(table.trusted(3));
  EXPECT_EQ(table.epoch(), 2u);

  table.decay_epoch();
  EXPECT_DOUBLE_EQ(table.penalty(3), 2.0);
  EXPECT_TRUE(table.trusted(3));
  EXPECT_EQ(table.distrusted_count(), 0u);

  // Multiplicative decay alone never reaches zero; the epsilon snap must.
  for (int i = 0; i < 16; ++i) table.decay_epoch();
  EXPECT_DOUBLE_EQ(table.penalty(3), 0.0);
  EXPECT_EQ(table.epoch(), 19u);

  // Decay with nothing penalized is a cheap no-op that still counts epochs.
  table.decay_epoch();
  EXPECT_EQ(table.epoch(), 20u);
}

TEST(ReputationTable, ResetForgetsEverything) {
  const auto g = ring_overlay(64, 2, 6);
  ReputationTable table(g);
  for (NodeId u = 0; u < 8; ++u) {
    table.record(u, Observation::kDiedAtHop);
    table.record(u, Observation::kDiedAtHop);
    table.record(u, Observation::kDiedAtHop);
  }
  table.decay_epoch();  // 9.0 -> 4.5: decayed but still past the threshold
  ASSERT_GT(table.distrusted_count(), 0u);
  ASSERT_EQ(table.epoch(), 1u);
  table.reset();
  EXPECT_EQ(table.distrusted_count(), 0u);
  EXPECT_EQ(table.epoch(), 0u);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_DOUBLE_EQ(table.penalty(u), 0.0);
    EXPECT_TRUE(table.trusted(u));
    EXPECT_EQ(table.trusted_bytes()[u], 1);
  }
}

TEST(ReputationTable, ValidatesItsConfig) {
  const auto g = ring_overlay(64, 2, 7);
  ReputationConfig bad;
  bad.distrust_threshold = 0.0;
  EXPECT_THROW(ReputationTable(g, bad), std::invalid_argument);
  bad = {};
  bad.decay = 1.0;  // must shrink: [0, 1)
  EXPECT_THROW(ReputationTable(g, bad), std::invalid_argument);
  bad = {};
  bad.decay = -0.5;
  EXPECT_THROW(ReputationTable(g, bad), std::invalid_argument);
  bad = {};
  bad.max_penalty = bad.distrust_threshold - 1.0;  // cap below the threshold
  EXPECT_THROW(ReputationTable(g, bad), std::invalid_argument);
  EXPECT_THROW(ReputationTable(g).record(static_cast<NodeId>(g.size()),
                                         Observation::kDiedAtHop),
               std::invalid_argument);
}

// The byte sideband is the *derived* form of the scores; randomized op
// sequences must keep it in lockstep with a scalar re-derivation from the
// penalties (the same equivalence the SIMD gather relies on).
TEST(ReputationTable, SidebandMatchesScalarRederivationUnderRandomOps) {
  const auto g = ring_overlay(128, 2, 8);
  ReputationTable table(g);
  const double threshold = table.config().distrust_threshold;
  util::Rng rng(88);
  const Observation kinds[] = {Observation::kDelivered, Observation::kDiedAtHop,
                               Observation::kRegressed, Observation::kTimedOut};
  for (int op = 0; op < 3000; ++op) {
    if (rng.next_bool(0.05)) {
      table.decay_epoch();
    } else {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      table.record(u, kinds[rng.next_below(4)]);
    }
    if (op % 100 == 0 || op == 2999) {
      std::size_t distrusted = 0;
      for (NodeId u = 0; u < g.size(); ++u) {
        const bool want = table.penalty(u) < threshold;
        ASSERT_EQ(table.trusted(u), want) << "op=" << op << " u=" << u;
        ASSERT_EQ(table.trusted_bytes()[u], want ? 1 : 0)
            << "op=" << op << " u=" << u;
        if (!want) ++distrusted;
      }
      ASSERT_EQ(table.distrusted_count(), distrusted) << "op=" << op;
    }
  }
}

// ---------------------------------------------------------------------------
// Router integration: the trust mask in candidate selection

/// Distrusts `u` outright (cap >= threshold makes two deaths sufficient).
void distrust(ReputationTable& table, NodeId u) {
  while (table.trusted(u)) table.record(u, Observation::kDiedAtHop);
}

TEST(RouterTrustMask, CandidatesSkipDistrustedNeighbours) {
  const auto g = ring_overlay(1024, 8, 11);
  const auto view = FailureView::all_alive(g);
  ReputationTable table(g);
  core::RouterConfig cfg;
  cfg.reputation = &table;
  const core::Router masked(g, view, cfg);
  const core::Router plain(g, view);

  const NodeId u = 17;
  const auto t = g.position(600);
  const auto before = plain.candidates(u, t);
  ASSERT_GE(before.size(), 2u);

  // Nobody distrusted: the mask self-gates, selection identical to plain.
  EXPECT_EQ(masked.candidates(u, t), before);

  distrust(table, before[0]);
  const auto after = masked.candidates(u, t);
  EXPECT_EQ(after.size(), before.size() - 1);
  for (const NodeId v : after) EXPECT_NE(v, before[0]);
  // The filtered list is exactly the old list minus the suspect, in order.
  std::vector<NodeId> expect(before.begin() + 1, before.end());
  EXPECT_EQ(after, expect);
  // Plain router (no table) is unaffected — the SecureRouter's fallback.
  EXPECT_EQ(plain.candidates(u, t), before);

  // Streaming selection agrees with the reference at every rank.
  for (std::size_t rank = 0; rank <= after.size(); ++rank) {
    const NodeId want = rank < after.size() ? after[rank] : graph::kInvalidNode;
    EXPECT_EQ(masked.select_candidate(u, t, rank), want) << rank;
  }

  // Trust restored (decay to zero) re-admits the neighbour.
  while (!table.trusted(before[0])) table.decay_epoch();
  EXPECT_EQ(masked.candidates(u, t), before);
}

}  // namespace
}  // namespace p2p::failure
