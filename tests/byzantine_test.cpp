// Tests for the Byzantine model and the redundant secure router.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace p2p::core {
namespace {

using failure::ByzantineBehavior;
using failure::ByzantineSet;
using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph test_graph(std::uint64_t n, std::size_t links, std::uint64_t seed,
                        bool bidirectional = false) {
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = bidirectional;
  return graph::build_overlay(spec, rng);
}

TEST(ByzantineSet, NoneHasNoCorruptNodes) {
  const auto g = test_graph(64, 2, 1);
  const auto set = ByzantineSet::none(g);
  EXPECT_EQ(set.count(), 0u);
  for (NodeId u = 0; u < g.size(); ++u) EXPECT_FALSE(set.is_byzantine(u));
}

TEST(ByzantineSet, RandomFractionMatches) {
  const auto g = test_graph(4096, 1, 2);
  util::Rng rng(3);
  const auto set = ByzantineSet::random(g, 0.25, rng);
  EXPECT_NEAR(static_cast<double>(set.count()) / 4096.0, 0.25, 0.03);
}

TEST(ByzantineSet, ExplicitPlacementAndHealing) {
  const auto g = test_graph(64, 2, 4);
  auto set = ByzantineSet::of(g, {3, 7, 7});
  EXPECT_EQ(set.count(), 2u);  // duplicate ignored
  EXPECT_TRUE(set.is_byzantine(3));
  set.heal(3);
  EXPECT_FALSE(set.is_byzantine(3));
  EXPECT_EQ(set.count(), 1u);
  set.corrupt(5);
  EXPECT_TRUE(set.is_byzantine(5));
  EXPECT_THROW(set.corrupt(64), std::out_of_range);
}

TEST(SecureRouter, NoAttackersBehavesLikePlainGreedy) {
  const auto g = test_graph(1024, 8, 5);
  const auto view = FailureView::all_alive(g);
  const auto byz = ByzantineSet::none(g);
  const SecureRouter secure(g, view, byz, {.paths = 1});
  const Router plain(g, view);
  util::Rng rng_a(6), rng_b(6);
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<NodeId>(rng_a.next_below(g.size()));
    const auto dst = static_cast<NodeId>(rng_a.next_below(g.size()));
    static_cast<void>(rng_b.next_below(g.size()));
    static_cast<void>(rng_b.next_below(g.size()));
    const auto a = secure.route(src, g.position(dst), rng_a);
    const auto b = plain.route(src, g.position(dst), rng_b);
    ASSERT_TRUE(a.delivered);
    EXPECT_EQ(a.best_hops, b.hops);
  }
}

TEST(SecureRouter, BlackholeOnThePathKillsASingleWalk) {
  // Bare ring: the unique greedy path 0 -> 5 passes node 2.
  const OverlayGraph g = test_graph(10, 0, 0);
  const auto view = FailureView::all_alive(g);
  const auto byz = ByzantineSet::of(g, {2});
  util::Rng rng(7);
  const SecureRouter single(g, view, byz, {.paths = 1});
  const auto res = single.route(0, 4, rng);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.successful_walks, 0u);
}

TEST(SecureRouter, DiverseSecondPathRoutesAroundTheBlackhole) {
  const OverlayGraph g = test_graph(10, 0, 0);  // no long links
  const auto view = FailureView::all_alive(g);
  const auto byz = ByzantineSet::of(g, {2});
  util::Rng rng(8);
  // Walk 0 goes clockwise into the blackhole; walk 1 leaves over the other
  // short link and reaches 4 counter-clockwise.
  const SecureRouter redundant(g, view, byz, {.paths = 2});
  const auto res = redundant.route(0, 4, rng);
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.successful_walks, 1u);
  EXPECT_EQ(res.best_hops, 6u);  // 0 -> 9 -> 8 -> 7 -> 6 -> 5 -> 4
}

TEST(SecureRouter, SourceIsTrustedTargetDeliversToItself) {
  const auto g = test_graph(256, 4, 9);
  const auto view = FailureView::all_alive(g);
  const auto byz = ByzantineSet::of(g, {17});
  const SecureRouter secure(g, view, byz, {.paths = 2});
  util::Rng rng(10);
  // A search *originating* at a corrupted node still runs (the attacker
  // gains nothing by dropping its own query).
  EXPECT_TRUE(secure.route(17, 200, rng).delivered);
  // A zero-hop search trivially succeeds.
  EXPECT_TRUE(secure.route(40, 40, rng).delivered);
}

TEST(SecureRouter, MisrouteInflatesCostAndFailsUnderTightTtl) {
  const auto g = test_graph(2048, 10, 11, /*bidirectional=*/true);
  const auto view = FailureView::all_alive(g);
  util::Rng rng(12);
  const auto byz = ByzantineSet::random(g, 0.25, rng);
  const auto clean = ByzantineSet::none(g);

  // Generous TTL: misroute cannot stop a search outright (honest greedy
  // re-converges), but it inflates the message cost.
  const SecureRouter attacked(
      g, view, byz, {.paths = 1, .behavior = ByzantineBehavior::kMisroute});
  const SecureRouter unattacked(g, view, clean, {.paths = 1});
  // Tight TTL: the wasted budget turns into outright failures, and
  // redundancy buys some of them back.
  const SecureRouter tight_single(
      g, view, byz,
      {.paths = 1, .ttl = 12, .behavior = ByzantineBehavior::kMisroute});
  const SecureRouter tight_redundant(
      g, view, byz,
      {.paths = 4, .ttl = 12, .behavior = ByzantineBehavior::kMisroute});

  std::size_t attacked_cost = 0, clean_cost = 0;
  std::size_t attacked_ok = 0;
  std::size_t tight_ok_single = 0, tight_ok_redundant = 0;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(g.size()));
    const auto dst = static_cast<NodeId>(rng.next_below(g.size()));
    const auto a = attacked.route(src, g.position(dst), rng);
    // Generous TTL: honest greedy usually re-converges after a detour
    // (loop-free walks can still dead-end occasionally).
    attacked_ok += a.delivered ? 1 : 0;
    attacked_cost += a.total_messages;
    clean_cost += unattacked.route(src, g.position(dst), rng).total_messages;
    if (tight_single.route(src, g.position(dst), rng).delivered) {
      ++tight_ok_single;
    }
    if (tight_redundant.route(src, g.position(dst), rng).delivered) {
      ++tight_ok_redundant;
    }
  }
  EXPECT_GT(attacked_ok, 240);                   // >= 80% still served
  EXPECT_GT(attacked_cost, clean_cost * 5 / 4);  // >= 25% cost inflation
  EXPECT_LT(tight_ok_single, 300);               // tight budget: some fail
  EXPECT_GT(tight_ok_redundant, tight_ok_single);
}

TEST(SecureRouter, RedundancyCostIsAccounted) {
  const auto g = test_graph(512, 6, 13);
  const auto view = FailureView::all_alive(g);
  const auto byz = ByzantineSet::none(g);
  const SecureRouter secure(g, view, byz, {.paths = 4});
  util::Rng rng(14);
  const auto res = secure.route(3, 400, rng);
  ASSERT_TRUE(res.delivered);
  EXPECT_EQ(res.successful_walks, 4u);  // no attackers: every walk arrives
  EXPECT_GE(res.total_messages, 4 * res.best_hops);
}

TEST(ByzantineSet, CorruptAndHealAreIdempotent) {
  const auto g = test_graph(64, 2, 40);
  auto set = ByzantineSet::none(g);
  // Healing an honest node — even before any flags exist — is a no-op.
  set.heal(5);
  EXPECT_EQ(set.count(), 0u);
  set.corrupt(5);
  set.corrupt(5);
  EXPECT_EQ(set.count(), 1u);
  EXPECT_TRUE(set.is_byzantine(5));
  set.heal(5);
  set.heal(5);
  EXPECT_EQ(set.count(), 0u);
  EXPECT_FALSE(set.is_byzantine(5));
  // Manual flips never move the delta cursor.
  EXPECT_EQ(set.epoch(), 0u);
}

TEST(ByzantineSet, DeltaApplyAndRevertAreExactInverses) {
  const auto g = test_graph(64, 2, 41);
  auto set = ByzantineSet::of(g, {1, 2});
  failure::ByzantineDelta first;
  first.when = 1.0;
  first.corrupts = {3, 4};
  first.heals = {1};
  failure::ByzantineDelta second;
  second.when = 2.0;
  second.corrupts = {1};
  second.heals = {3, 4};

  set.apply(first);
  EXPECT_EQ(set.epoch(), 1u);
  EXPECT_EQ(set.count(), 3u);  // {2, 3, 4}
  EXPECT_FALSE(set.is_byzantine(1));
  EXPECT_TRUE(set.is_byzantine(3));
  set.apply(second);
  EXPECT_EQ(set.epoch(), 2u);
  EXPECT_EQ(set.count(), 2u);  // {1, 2}
  EXPECT_TRUE(set.is_byzantine(1));
  EXPECT_FALSE(set.is_byzantine(4));

  set.revert(second);
  EXPECT_EQ(set.epoch(), 1u);
  EXPECT_EQ(set.count(), 3u);
  EXPECT_FALSE(set.is_byzantine(1));
  EXPECT_TRUE(set.is_byzantine(4));
  set.revert(first);
  EXPECT_EQ(set.epoch(), 0u);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set.is_byzantine(1));
  EXPECT_TRUE(set.is_byzantine(2));
  EXPECT_FALSE(set.is_byzantine(3));
}

TEST(ByzantineSet, ApplyRejectsOutOfSyncDeltas) {
  const auto g = test_graph(64, 2, 42);
  auto set = ByzantineSet::of(g, {7});
  failure::ByzantineDelta corrupt_again;
  corrupt_again.corrupts = {7};  // no-op change: schedule out of sync
  EXPECT_THROW(set.apply(corrupt_again), std::invalid_argument);
  failure::ByzantineDelta heal_honest;
  heal_honest.heals = {9};
  EXPECT_THROW(set.apply(heal_honest), std::invalid_argument);
  failure::ByzantineDelta out_of_range;
  out_of_range.corrupts = {64};
  EXPECT_THROW(set.apply(out_of_range), std::out_of_range);
  // Revert below epoch 0 is a cursor error even for an invertible batch.
  failure::ByzantineDelta fine;
  fine.corrupts = {3};
  EXPECT_THROW(set.revert(fine), std::invalid_argument);
  set.apply(fine);
  EXPECT_EQ(set.epoch(), 1u);
  // Reverting a batch that is not the one that produced the current epoch
  // trips the same normalization check (its heals/corrupts are no-ops).
  failure::ByzantineDelta wrong;
  wrong.corrupts = {5};
  EXPECT_THROW(set.revert(wrong), std::invalid_argument);
}

TEST(SecureRouter, RejectsBadWiring) {
  const auto g1 = test_graph(64, 2, 15);
  const auto g2 = test_graph(64, 2, 16);
  const auto view = FailureView::all_alive(g1);
  const auto byz = ByzantineSet::none(g2);
  EXPECT_THROW(SecureRouter(g1, view, byz, {}), std::invalid_argument);
  const auto byz_ok = ByzantineSet::none(g1);
  EXPECT_THROW(SecureRouter(g1, view, byz_ok, {.paths = 0}), std::invalid_argument);
}

}  // namespace
}  // namespace p2p::core
