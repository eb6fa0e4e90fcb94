// Tests for churn::AdversarialReplay — crash churn and Byzantine
// corrupt/heal waves composed through core::SecureRouter on one
// discrete-event trace — including the PR acceptance equivalences:
//  * a full replay is bit-deterministic per (graph, log, waves, config);
//  * at widths 1 and 32, the replay driver's results are identical to a
//    manual driver that applies the merged delta schedule by hand between
//    pipeline ticks (same tick-debt accounting, same same-instant order:
//    crash before corruption);
//  * a walk standing on a node killed by a replay delta dies where it
//    stands — it never steps out of a crashed node, and the crash is not
//    blamed on the node's reputation;
//  * the composed kMisroute + kRegionalOutage scenario drives both epoch
//    cursors and the decay schedule while every per-query invariant holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/adversarial_replay.h"
#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/router.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "failure/reputation.h"
#include "graph/graph_builder.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace p2p::churn {
namespace {

using core::SecureBatchPipeline;
using core::SecureRouteResult;
using core::SecureRouter;
using core::SecureRouterConfig;
using core::SecureRouteSession;
using core::WalkOutcome;
using failure::ByzantineBehavior;
using failure::ByzantineDelta;
using failure::ByzantineSet;
using failure::FailureView;
using failure::ReputationTable;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph make_graph(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = true;
  return graph::build_overlay(spec, rng);
}

ChurnLog poisson_log(const OverlayGraph& g, double duration, std::uint64_t seed) {
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kPoissonChurn;
  spec.duration = duration;
  spec.kill_rate = 2.0;
  spec.revive_rate = 2.0;
  util::Rng rng(seed);
  return make_trace(g, spec, rng);
}

std::vector<ByzantineDelta> hub_waves(const OverlayGraph& g, double duration,
                                      double period, std::size_t wave_size) {
  ByzantineWaveSpec spec;
  spec.duration = duration;
  spec.wave_period = period;
  spec.wave_size = wave_size;
  spec.hub_offset = wave_size;  // disjoint from the crash waves' rank-0 tier
  return make_byzantine_waves(g, spec);
}

void expect_same_result(const SecureRouteResult& got,
                        const SecureRouteResult& want, const std::string& label) {
  EXPECT_EQ(got.delivered, want.delivered) << label;
  EXPECT_EQ(got.successful_walks, want.successful_walks) << label;
  EXPECT_EQ(got.total_messages, want.total_messages) << label;
  EXPECT_EQ(got.best_hops, want.best_hops) << label;
  EXPECT_EQ(got.walks_launched, want.walks_launched) << label;
  EXPECT_EQ(got.walks_died, want.walks_died) << label;
  EXPECT_EQ(got.walks_stuck, want.walks_stuck) << label;
  EXPECT_EQ(got.walks_ttl_expired, want.walks_ttl_expired) << label;
  EXPECT_EQ(got.escalations, want.escalations) << label;
  EXPECT_EQ(got.completion_epoch, want.completion_epoch) << label;
  EXPECT_EQ(got.byzantine_epoch, want.byzantine_epoch) << label;
}

TEST(AdversarialReplay, ReplayIsDeterministic) {
  const auto g = make_graph(1024, 8, 1);
  const auto log = poisson_log(g, 100.0, 2);
  const auto waves = hub_waves(g, 100.0, 25.0, 16);
  ASSERT_GT(log.size(), 0u);
  ASSERT_GT(waves.size(), 0u);

  AdversarialReplayConfig rc;
  rc.queries = 256;
  rc.width = 16;
  rc.seed = 7;
  rc.ticks_per_ms = 48.0;
  rc.decay_interval_ms = 20.0;

  const auto run_once = [&](std::vector<SecureRouteResult>& results,
                            std::vector<double>& times) {
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    ReputationTable table(g);
    SecureRouterConfig cfg;
    cfg.paths = 2;
    cfg.max_paths = 6;
    cfg.behavior = ByzantineBehavior::kMisroute;
    cfg.reputation = &table;
    const SecureRouter router(g, view, byz, cfg);
    sim::EventQueue queue;
    AdversarialReplay replay(router, log, waves, view, byz, queue, rc);
    const auto stats = replay.run();
    results.assign(replay.results().begin(), replay.results().end());
    times.assign(replay.completion_times().begin(),
                 replay.completion_times().end());
    return stats;
  };

  std::vector<SecureRouteResult> results_a, results_b;
  std::vector<double> times_a, times_b;
  const auto stats_a = run_once(results_a, times_a);
  const auto stats_b = run_once(results_b, times_b);

  EXPECT_EQ(stats_a.churn_deltas_applied, stats_b.churn_deltas_applied);
  EXPECT_EQ(stats_a.byzantine_deltas_applied, stats_b.byzantine_deltas_applied);
  EXPECT_EQ(stats_a.reputation_decays, stats_b.reputation_decays);
  EXPECT_EQ(stats_a.ticks, stats_b.ticks);
  EXPECT_EQ(stats_a.routed, stats_b.routed);
  EXPECT_EQ(stats_a.delivered, stats_b.delivered);
  EXPECT_EQ(stats_a.total_messages, stats_b.total_messages);
  EXPECT_EQ(stats_a.walks_launched, stats_b.walks_launched);
  EXPECT_EQ(stats_a.escalations, stats_b.escalations);
  EXPECT_EQ(stats_a.final_epoch, stats_b.final_epoch);
  EXPECT_EQ(stats_a.final_byzantine_epoch, stats_b.final_byzantine_epoch);
  ASSERT_EQ(results_a.size(), results_b.size());
  for (std::size_t i = 0; i < results_a.size(); ++i) {
    expect_same_result(results_a[i], results_b[i], "query " + std::to_string(i));
  }
  EXPECT_EQ(times_a, times_b);
}

// The replay's event machinery (queue, tick debt, same-instant ordering) must
// be observationally equivalent to applying the merged delta schedule by hand
// between pipeline ticks — at width 1 (fully serial searches) and the default
// 32 (interleaved lanes), since the tick interleave differs per width.
TEST(AdversarialReplay, MatchesManualDriverAtWidthsOneAndThirtyTwo) {
  const auto g = make_graph(1024, 8, 11);
  const auto log = poisson_log(g, 100.0, 12);
  const auto waves = hub_waves(g, 100.0, 25.0, 16);
  ASSERT_GT(log.size(), 0u);
  ASSERT_GT(waves.size(), 0u);

  // The merged schedule in the replay's same-instant order: crash deltas are
  // scheduled first, so EventQueue's sequence tie-break fires them before
  // same-instant corruption deltas.
  struct Event {
    double when;
    int kind;  // 0 = churn, 1 = byzantine
    std::size_t index;
  };
  std::vector<Event> events;
  for (std::size_t e = 0; e < log.size(); ++e) {
    events.push_back({log.delta(e).when, 0, e});
  }
  for (std::size_t i = 0; i < waves.size(); ++i) {
    events.push_back({waves[i].when, 1, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.index < b.index;
  });

  SecureRouterConfig cfg;
  cfg.paths = 2;
  cfg.max_paths = 6;
  cfg.behavior = ByzantineBehavior::kMisroute;

  for (const std::size_t width : {std::size_t{1}, std::size_t{32}}) {
    AdversarialReplayConfig rc;
    rc.queries = width == 1 ? 48 : 256;  // width 1 serializes; keep it cheap
    rc.width = width;
    rc.seed = 13;
    rc.ticks_per_ms = 48.0;
    rc.decay_interval_ms = 0.0;  // reputation off: nothing to decay

    // Replay driver.
    auto view_r = log.baseline();
    auto byz_r = ByzantineSet::none(g);
    const SecureRouter router_r(g, view_r, byz_r, cfg);
    sim::EventQueue queue;
    AdversarialReplay replay(router_r, log, waves, view_r, byz_r, queue, rc);
    const auto stats = replay.run();
    EXPECT_EQ(stats.churn_deltas_applied, log.size());
    EXPECT_EQ(stats.byzantine_deltas_applied, waves.size());

    // Manual driver: same queries, same per-query streams, deltas applied by
    // hand at the identical tick debt.
    const std::vector<core::Query> queries(replay.queries().begin(),
                                           replay.queries().end());
    auto view_m = log.baseline();
    auto byz_m = ByzantineSet::none(g);
    const SecureRouter router_m(g, view_m, byz_m, cfg);
    std::vector<SecureRouteResult> results(queries.size());
    SecureBatchPipeline pipe(
        router_m, queries, results,
        util::splitmix64(rc.seed ^ 0xc4ce'b9fe'1a85'ec53ULL),
        core::BatchConfig{.width = width});
    // `debt` mirrors the replay's tick accounting (it jumps ahead once the
    // workload drains); `actual` counts real pipeline ticks, which is what
    // stats.ticks reports.
    std::size_t debt = 0, actual = 0;
    bool live = true;
    const auto advance_to = [&](double now) {
      const auto target = static_cast<std::size_t>(now * rc.ticks_per_ms);
      while (live && debt < target) {
        live = pipe.tick();
        ++debt;
        ++actual;
      }
      if (!live) debt = std::max(debt, target);
    };
    for (const Event& ev : events) {
      advance_to(ev.when);
      if (ev.kind == 0) {
        log.seek(view_m, ev.index + 1);
      } else {
        byz_m.apply(waves[ev.index]);
      }
    }
    while (live) {
      live = pipe.tick();
      ++actual;
    }

    EXPECT_EQ(stats.ticks, actual) << "width=" << width;
    EXPECT_EQ(view_m.epoch(), stats.final_epoch) << "width=" << width;
    EXPECT_EQ(byz_m.epoch(), stats.final_byzantine_epoch) << "width=" << width;
    ASSERT_EQ(replay.results().size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_same_result(replay.results()[i], results[i],
                         "width=" + std::to_string(width) + " query=" +
                             std::to_string(i));
    }
  }
}

// Sessions re-read the failure view every tick: a walk standing on a node a
// delta just killed must die *in place* (kDied at that node, no further
// transmission), and the crash must not be charged to the node's reputation
// (visible failures are the FailureView's business).
TEST(AdversarialReplay, WalkOnFreshlyKilledNodeDiesWhereItStands) {
  // A bare 8-ring of short links: from 0 toward 3 the only strictly closer
  // neighbour is 1, so the first hop is forced and the test fully determined.
  graph::GraphBuilder builder{metric::Space::ring(8)};
  builder.wire_short_links();
  const auto g = builder.freeze();

  auto view = FailureView::all_alive(g);
  const auto byz = ByzantineSet::none(g);
  ReputationTable table(g);
  SecureRouterConfig cfg;
  cfg.paths = 1;
  cfg.record_walks = true;
  cfg.reputation = &table;
  const SecureRouter router(g, view, byz, cfg);

  const core::Router plain(g, view);
  const NodeId first = plain.select_candidate(0, g.position(3), 0);
  ASSERT_EQ(first, 1u);

  SecureRouteSession session(router, 0, g.position(3));
  util::Rng rng(1);
  ASSERT_TRUE(session.step(rng));  // one transmission: 0 -> 1
  view.kill_node(first);           // the delta lands between transmissions
  while (session.step(rng)) {
  }
  const SecureRouteResult& res = session.result();
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.walks_died, 1u);
  EXPECT_EQ(res.total_messages, 1u);  // the walk never left the dead node
  ASSERT_EQ(res.walks.size(), 1u);
  EXPECT_EQ(res.walks[0].outcome, WalkOutcome::kDied);
  EXPECT_EQ(res.walks[0].last, first);
  EXPECT_EQ(res.walks[0].hops, 1u);
  // Crash != blame: an honestly crashed node keeps its clean record.
  EXPECT_DOUBLE_EQ(table.penalty(first), 0.0);
  EXPECT_TRUE(table.trusted(first));
}

// The composed scenario of the ISSUE: misrouting hub adversary + correlated
// regional outages, with reputation feedback and escalation live. Checks the
// schedule bookkeeping, both epoch cursors, the decay cadence and every
// per-query structural invariant.
TEST(AdversarialReplay, ComposedMisrouteAndRegionalOutage) {
  const auto g = make_graph(2048, 8, 21);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kRegionalOutage;
  spec.duration = 200.0;
  spec.outages = 2;
  spec.region_fraction = 0.15;
  util::Rng trace_rng(22);
  const auto log = make_trace(g, spec, trace_rng);
  const auto waves = hub_waves(g, 200.0, 50.0, 64);
  ASSERT_GT(log.size(), 0u);
  ASSERT_GT(waves.size(), 0u);

  auto view = log.baseline();
  auto byz = ByzantineSet::none(g);
  ReputationTable table(g);
  SecureRouterConfig cfg;
  cfg.paths = 2;
  cfg.max_paths = 6;
  cfg.behavior = ByzantineBehavior::kMisroute;
  cfg.reputation = &table;
  const SecureRouter router(g, view, byz, cfg);

  AdversarialReplayConfig rc;
  rc.queries = 384;
  rc.width = 32;
  rc.seed = 23;
  rc.ticks_per_ms = 32.0;
  rc.decay_interval_ms = 25.0;
  sim::EventQueue queue;
  AdversarialReplay replay(router, log, waves, view, byz, queue, rc);
  const auto stats = replay.run();

  EXPECT_EQ(stats.routed, rc.queries);
  EXPECT_EQ(stats.churn_deltas_applied, log.size());
  EXPECT_EQ(stats.byzantine_deltas_applied, waves.size());
  EXPECT_EQ(stats.final_epoch, log.size());
  EXPECT_EQ(stats.final_byzantine_epoch, waves.size());
  EXPECT_EQ(view.epoch(), log.size());
  EXPECT_EQ(byz.epoch(), waves.size());
  EXPECT_GT(stats.reputation_decays, 0u);
  EXPECT_EQ(table.epoch(), stats.reputation_decays);
  EXPECT_GT(stats.sim_end, 0.0);
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_LE(stats.delivered, stats.routed);
  EXPECT_GT(stats.success_rate(), 0.0);
  EXPECT_LE(stats.success_rate(), 1.0);
  EXPECT_GT(stats.messages_per_delivery(), 0.0);

  const auto results = replay.results();
  const auto times = replay.completion_times();
  ASSERT_EQ(results.size(), rc.queries);
  ASSERT_EQ(times.size(), rc.queries);
  std::size_t delivered = 0, messages = 0, escalations = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SecureRouteResult& r = results[i];
    delivered += r.delivered ? 1 : 0;
    messages += r.total_messages;
    escalations += r.escalations;
    EXPECT_GE(r.walks_launched, 1u) << i;
    EXPECT_LE(r.walks_launched, router.max_walks()) << i;
    // Every launched walk ended exactly one way.
    EXPECT_EQ(r.successful_walks + r.walks_died + r.walks_stuck +
                  r.walks_ttl_expired,
              r.walks_launched)
        << i;
    if (r.escalations > 0) EXPECT_GT(r.walks_launched, cfg.paths) << i;
    EXPECT_LE(r.completion_epoch, log.size()) << i;
    EXPECT_LE(r.byzantine_epoch, waves.size()) << i;
    // Every query retired, so every completion got a timestamp.
    EXPECT_GT(times[i], 0.0) << i;
  }
  EXPECT_EQ(stats.delivered, delivered);
  EXPECT_EQ(stats.total_messages, messages);
  EXPECT_EQ(stats.escalations, escalations);
  EXPECT_GT(stats.escalations, 0u);  // the adversary forced at least one retry
}

TEST(AdversarialReplay, ValidatesItsBindings) {
  const auto g = make_graph(256, 4, 31);
  const auto log = poisson_log(g, 50.0, 32);
  const auto waves = hub_waves(g, 50.0, 25.0, 8);
  ASSERT_GT(log.size(), 0u);
  ASSERT_GE(waves.size(), 2u);
  AdversarialReplayConfig rc;
  rc.queries = 16;
  rc.decay_interval_ms = 0.0;
  sim::EventQueue queue;
  const SecureRouterConfig cfg;

  {  // The replayed view must be the one the router reads.
    auto view = log.baseline();
    auto other = log.baseline();
    auto byz = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    EXPECT_THROW(AdversarialReplay(router, log, waves, other, byz, queue, rc),
                 std::invalid_argument);
  }
  {  // Same for the Byzantine set.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    auto other = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    EXPECT_THROW(AdversarialReplay(router, log, waves, view, other, queue, rc),
                 std::invalid_argument);
  }
  {  // The view must start at epoch 0.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    log.seek(view, 1);
    EXPECT_THROW(AdversarialReplay(router, log, waves, view, byz, queue, rc),
                 std::invalid_argument);
  }
  {  // So must the Byzantine set.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    byz.apply(waves[0]);
    EXPECT_THROW(AdversarialReplay(router, log, waves, view, byz, queue, rc),
                 std::invalid_argument);
  }
  {  // Waves must be time-ordered.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    std::vector<ByzantineDelta> shuffled{waves[1], waves[0]};
    EXPECT_THROW(AdversarialReplay(router, log, shuffled, view, byz, queue, rc),
                 std::invalid_argument);
  }
  {  // A decay schedule needs a reputation table to decay.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    auto bad = rc;
    bad.decay_interval_ms = 5.0;
    EXPECT_THROW(AdversarialReplay(router, log, waves, view, byz, queue, bad),
                 std::invalid_argument);
    bad = rc;
    bad.ticks_per_ms = 0.0;
    EXPECT_THROW(AdversarialReplay(router, log, waves, view, byz, queue, bad),
                 std::invalid_argument);
  }
  {  // A decay cadence too fine for `t += interval` to advance would never
     // finish scheduling; it is refused before anything is queued.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    ReputationTable table(g);
    SecureRouterConfig with_table = cfg;
    with_table.reputation = &table;
    const SecureRouter router(g, view, byz, with_table);
    auto bad = rc;
    bad.decay_interval_ms = 1e-20;
    EXPECT_THROW(
        AdversarialReplay(router, log, waves, view, byz, queue, bad).run(),
        std::invalid_argument);
  }
  {  // The tick rate must be finite: inf or NaN cannot be cast to a tick count.
    auto view = log.baseline();
    auto byz = ByzantineSet::none(g);
    const SecureRouter router(g, view, byz, cfg);
    for (const double rate : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
      auto bad = rc;
      bad.ticks_per_ms = rate;
      EXPECT_THROW(AdversarialReplay(router, log, waves, view, byz, queue, bad),
                   std::invalid_argument)
          << rate;
    }
  }
}

}  // namespace
}  // namespace p2p::churn
