// Model-based randomized tests ("fuzz"): long random operation sequences
// against simple reference models, with invariants checked after every step.
//
//  * DynamicOverlay: joins/leaves/crashes/repairs in random order must keep
//    membership, link-target validity and the in/out reverse index
//    consistent, and the overlay must stay routable.
//  * AdversaryFuzz: corrupt/heal/apply/revert/kill/revive/seek/record/decay
//    interleavings over ByzantineSet + FailureView + ReputationTable against
//    reference models; every byte sideband must equal its scalar
//    re-derivation after each step.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/construction.h"
#include "core/router.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "failure/reputation.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace p2p {
namespace {

using metric::Point;
using metric::Space;

// ---------------------------------------------------------------------------
// DynamicOverlay fuzz
// ---------------------------------------------------------------------------

class OverlayFuzz : public ::testing::TestWithParam<std::uint64_t> {};

void check_overlay_invariants(const core::DynamicOverlay& overlay) {
  const auto members = overlay.members();
  std::set<Point> member_set(members.begin(), members.end());
  ASSERT_EQ(member_set.size(), overlay.node_count());

  std::size_t dangling = 0;
  for (const Point p : members) {
    ASSERT_TRUE(overlay.occupied(p));
    for (const Point t : overlay.long_links_of(p)) {
      ASSERT_NE(t, p) << "self-link at " << p;
      ASSERT_TRUE(overlay.space().contains(t));
      if (!member_set.contains(t)) ++dangling;
    }
    ASSERT_LE(overlay.long_links_of(p).size(), overlay.config().long_links);
  }
  ASSERT_EQ(dangling, overlay.dangling_count());
}

TEST_P(OverlayFuzz, RandomOperationSequencesKeepInvariants) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const std::uint64_t grid = 512;
  core::ConstructionConfig cfg;
  cfg.long_links = 4;
  cfg.replace_policy = (seed % 2 == 0) ? core::ReplacePolicy::kPowerLaw
                                       : core::ReplacePolicy::kOldest;
  core::DynamicOverlay overlay(Space::ring(grid), cfg);

  // Seed membership so leaves/crashes have something to hit.
  for (Point p = 0; p < static_cast<Point>(grid); p += 16) overlay.join(p, rng);

  for (int op = 0; op < 600; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.40) {  // join a vacant position
      const auto p = static_cast<Point>(rng.next_below(grid));
      if (!overlay.occupied(p)) overlay.join(p, rng);
    } else if (dice < 0.60 && overlay.node_count() > 4) {  // graceful leave
      const auto members = overlay.members();
      overlay.leave(members[rng.next_below(members.size())], rng);
    } else if (dice < 0.85 && overlay.node_count() > 4) {  // crash
      const auto members = overlay.members();
      overlay.crash(members[rng.next_below(members.size())]);
    } else {  // repair pass
      overlay.repair(rng);
      ASSERT_EQ(overlay.dangling_count(), 0u);
    }
    if (op % 50 == 0) check_overlay_invariants(overlay);
  }
  check_overlay_invariants(overlay);

  // After a final repair, the snapshot must be fully routable.
  overlay.repair(rng);
  const auto g = overlay.snapshot();
  const auto view = failure::FailureView::all_alive(g);
  const core::Router router(g, view);
  for (int i = 0; i < 50; ++i) {
    const auto src = static_cast<graph::NodeId>(rng.next_below(g.size()));
    const auto dst = static_cast<graph::NodeId>(rng.next_below(g.size()));
    ASSERT_TRUE(router.route(src, g.position(dst), rng).delivered());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Adversary-state fuzz: ByzantineSet + ReputationTable + FailureView
// ---------------------------------------------------------------------------
//
// Random interleavings of corrupt/heal, delta apply/revert, kill/revive,
// churn-log seeks, outcome records and reputation decays, checked against
// plain reference models. The key invariant is the sideband contract the
// masked SIMD scan relies on: every byte sideband (Byzantine flags aside,
// node liveness and trust) must equal a scalar re-derivation from the
// authoritative state after every step.

class AdversaryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversaryFuzz, SidebandsMatchReferenceThroughInterleavedOps) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = 96;
  spec.long_links = 4;
  spec.bidirectional = true;
  const auto g = graph::build_overlay(spec, rng);
  const auto n = g.size();

  auto view = failure::FailureView::all_alive(g);
  // Two sets, matching real usage: replay drives one through the delta
  // cursor (apply/revert, where interleaved manual flips would legitimately
  // desynchronize the schedule), manual injection flips the other.
  auto manual_set = failure::ByzantineSet::none(g);
  auto delta_set = failure::ByzantineSet::none(g);
  failure::ReputationTable rep(g);
  const auto& rcfg = rep.config();
  constexpr double kPenaltyEpsilon = 1.0 / 1024.0;  // reputation.h's snap

  // A delta-log-driven second view: seeks must land on the exact epoch.
  churn::TraceSpec trace;
  trace.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  trace.duration = 50.0;
  trace.kill_rate = 2.0;
  trace.revive_rate = 2.0;
  const auto log = churn::make_trace(g, trace, rng);
  auto seek_view = log.baseline();

  // Reference models.
  std::vector<std::uint8_t> manual_ref(n, 0);
  std::vector<std::uint8_t> delta_ref(n, 0);
  std::vector<std::uint8_t> alive_ref(n, 1);
  std::vector<double> pen_ref(n, 0.0);
  std::vector<failure::ByzantineDelta> applied;  // revert stack

  const failure::Observation kinds[] = {
      failure::Observation::kDelivered, failure::Observation::kDiedAtHop,
      failure::Observation::kRegressed, failure::Observation::kTimedOut};
  const auto penalty_delta = [&](failure::Observation what) {
    switch (what) {
      case failure::Observation::kDelivered: return -rcfg.reward_delivered;
      case failure::Observation::kDiedAtHop: return rcfg.penalty_died;
      case failure::Observation::kRegressed: return rcfg.penalty_regressed;
      case failure::Observation::kTimedOut: return rcfg.penalty_timeout;
    }
    return 0.0;
  };

  const auto check = [&](int op) {
    std::size_t manual_count = 0, delta_count = 0, distrusted = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(manual_set.is_byzantine(u), manual_ref[u] != 0)
          << "op=" << op << " u=" << u;
      ASSERT_EQ(delta_set.is_byzantine(u), delta_ref[u] != 0)
          << "op=" << op << " u=" << u;
      ASSERT_EQ(view.node_alive(u), alive_ref[u] != 0) << "op=" << op << " u=" << u;
      if (view.node_dead_words() != nullptr) {
        ASSERT_EQ(((view.node_dead_words()[u >> 6] >> (u & 63)) & 1u) == 0u, alive_ref[u] != 0)
            << "op=" << op;
      }
      ASSERT_DOUBLE_EQ(rep.penalty(u), pen_ref[u]) << "op=" << op << " u=" << u;
      // The acceptance invariant: the trust sideband byte equals the scalar
      // re-derivation from the penalty, bit for bit.
      const bool want_trusted = pen_ref[u] < rcfg.distrust_threshold;
      ASSERT_EQ(rep.trusted(u), want_trusted) << "op=" << op << " u=" << u;
      ASSERT_EQ(rep.trusted_bytes()[u], want_trusted ? 1 : 0)
          << "op=" << op << " u=" << u;
      manual_count += manual_ref[u];
      delta_count += delta_ref[u];
      if (!want_trusted) ++distrusted;
    }
    ASSERT_EQ(manual_set.count(), manual_count) << "op=" << op;
    ASSERT_EQ(delta_set.count(), delta_count) << "op=" << op;
    ASSERT_EQ(rep.distrusted_count(), distrusted) << "op=" << op;
    ASSERT_EQ(manual_set.epoch(), 0u) << "op=" << op;
    ASSERT_EQ(delta_set.epoch(), applied.size()) << "op=" << op;
  };

  for (int op = 0; op < 600; ++op) {
    const double dice = rng.next_double();
    const auto u = static_cast<graph::NodeId>(rng.next_below(n));
    if (dice < 0.12) {  // manual corruption (idempotent)
      manual_set.corrupt(u);
      manual_ref[u] = 1;
    } else if (dice < 0.24) {  // manual heal (idempotent)
      manual_set.heal(u);
      manual_ref[u] = 0;
    } else if (dice < 0.34) {  // normalized delta apply
      failure::ByzantineDelta d;
      d.when = static_cast<double>(op);
      for (graph::NodeId v = 0; v < n; ++v) {
        if (!rng.next_bool(0.04)) continue;
        (delta_ref[v] != 0 ? d.heals : d.corrupts).push_back(v);
      }
      delta_set.apply(d);
      for (const auto v : d.corrupts) delta_ref[v] = 1;
      for (const auto v : d.heals) delta_ref[v] = 0;
      applied.push_back(std::move(d));
    } else if (dice < 0.44 && !applied.empty()) {  // exact-inverse revert
      const auto d = std::move(applied.back());
      applied.pop_back();
      delta_set.revert(d);
      for (const auto v : d.corrupts) delta_ref[v] = 0;
      for (const auto v : d.heals) delta_ref[v] = 1;
    } else if (dice < 0.56) {  // crash
      view.kill_node(u);
      alive_ref[u] = 0;
    } else if (dice < 0.68) {  // revive
      view.revive_node(u);
      alive_ref[u] = 1;
    } else if (dice < 0.76 && log.size() > 0) {  // churn-log seek (any epoch)
      const auto e = rng.next_below(log.size() + 1);
      log.seek(seek_view, e);
      ASSERT_EQ(seek_view.epoch(), e);
    } else if (dice < 0.94) {  // outcome record
      const auto what = kinds[rng.next_below(4)];
      rep.record(u, what);
      pen_ref[u] = std::clamp(pen_ref[u] + penalty_delta(what), 0.0,
                              rcfg.max_penalty);
    } else {  // reputation decay epoch
      rep.decay_epoch();
      for (auto& p : pen_ref) {
        p *= rcfg.decay;
        if (p < kPenaltyEpsilon) p = 0.0;
      }
    }
    if (op % 25 == 0) check(op);
  }
  check(600);

  // The composed state must still route: a SecureRouter over all three
  // sidebands at once, attributing outcomes back into the same table. After
  // routing mutated the penalties, the sideband must still re-derive.
  core::SecureRouterConfig scfg;
  scfg.paths = 2;
  scfg.reputation = &rep;
  const core::SecureRouter router(g, view, delta_set, scfg);
  for (int i = 0; i < 20; ++i) {
    const auto src = static_cast<graph::NodeId>(rng.next_below(n));
    const auto res = router.route(src, g.position(static_cast<graph::NodeId>(
                                           rng.next_below(n))),
                                  rng);
    ASSERT_LE(res.successful_walks, res.walks_launched);
  }
  std::size_t distrusted = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    const bool want = rep.penalty(u) < rcfg.distrust_threshold;
    ASSERT_EQ(rep.trusted(u), want) << u;
    ASSERT_EQ(rep.trusted_bytes()[u], want ? 1 : 0) << u;
    if (!want) ++distrusted;
  }
  ASSERT_EQ(rep.distrusted_count(), distrusted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversaryFuzz,
                         ::testing::Values(11u, 12u, 13u, 14u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace p2p
