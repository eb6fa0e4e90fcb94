// Tests for the churn trace generators (churn/trace_gen.h) and the
// discrete-event replay driver (churn/replay.h), including the PR acceptance
// equivalence: route_batch under *replayed* (delta-log) churn must agree with
// direct view mutation and with manually stepped sessions — the PR 2
// stepped-session churn test, with ChurnLog as the churn driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/churn_log.h"
#include "churn/replay.h"
#include "churn/trace_gen.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::churn {
namespace {

using core::BatchConfig;
using core::BatchPipeline;
using core::Query;
using core::RouteResult;
using core::Router;
using core::RouterConfig;
using core::RouteSession;
using core::StuckPolicy;
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

std::vector<Query> random_queries(const OverlayGraph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> queries(count);
  for (auto& q : queries) {
    q = {static_cast<NodeId>(rng.next_below(g.size())),
         static_cast<metric::Point>(rng.next_below(g.space().size()))};
  }
  return queries;
}

/// Routing-outcome equality. Epochs are compared only when `with_epochs`:
/// delta-log churn advances the view epoch where direct kill/revive calls do
/// not, so the cross-driver equivalence checks everything but the stamp.
void expect_same_outcome(const RouteResult& got, const RouteResult& want,
                         const std::string& label, bool with_epochs = true) {
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.hops, want.hops) << label;
  EXPECT_EQ(got.backtracks, want.backtracks) << label;
  EXPECT_EQ(got.reroutes, want.reroutes) << label;
  EXPECT_EQ(got.path, want.path) << label;
  if (with_epochs) EXPECT_EQ(got.completion_epoch, want.completion_epoch) << label;
}

// ---------------------------------------------------------------------------
// Trace generators

TEST(TraceGen, DeterministicPerSeed) {
  const auto g = make_graph(512, 4, 1);
  TraceSpec spec;
  spec.duration = 100.0;
  spec.kill_rate = 2.0;
  spec.revive_rate = 2.0;
  util::Rng a(5), b(5), c(6);
  const auto log_a = make_trace(g, spec, a);
  const auto log_b = make_trace(g, spec, b);
  const auto log_c = make_trace(g, spec, c);
  ASSERT_EQ(log_a.size(), log_b.size());
  EXPECT_EQ(log_a.total_changes(), log_b.total_changes());
  for (std::size_t e = 0; e < log_a.size(); ++e) {
    EXPECT_EQ(log_a.delta(e).node_kills, log_b.delta(e).node_kills) << e;
    EXPECT_EQ(log_a.delta(e).node_revives, log_b.delta(e).node_revives) << e;
    EXPECT_EQ(log_a.delta(e).when, log_b.delta(e).when) << e;
  }
  EXPECT_NE(log_a.total_changes(), log_c.total_changes());
}

TEST(TraceGen, EveryScenarioProducesAReplayableLog) {
  const auto g = make_graph(512, 5, 2);
  for (const auto scenario :
       {TraceSpec::Scenario::kPoissonChurn, TraceSpec::Scenario::kFlashCrowd,
        TraceSpec::Scenario::kRegionalOutage,
        TraceSpec::Scenario::kAdversarialWaves, TraceSpec::Scenario::kLinkFlap}) {
    TraceSpec spec;
    spec.scenario = scenario;
    spec.duration = 200.0;
    spec.kill_rate = 1.0;
    spec.revive_rate = 1.0;
    spec.wave_size = 16;
    spec.wave_period = 50.0;
    spec.outages = 3;
    util::Rng rng(3);
    const auto log = make_trace(g, spec, rng);
    ASSERT_GT(log.size(), 0u) << scenario_name(scenario);
    ASSERT_GT(log.total_changes(), 0u) << scenario_name(scenario);
    // Replayable end to end and back, bit-identical to from-scratch builds.
    FailureView view = log.baseline();
    log.seek(view, log.size());
    const auto rebuilt = log.materialize(log.size());
    EXPECT_EQ(view.epoch(), rebuilt.epoch()) << scenario_name(scenario);
    EXPECT_EQ(view.alive_count(), rebuilt.alive_count()) << scenario_name(scenario);
    for (NodeId u = 0; u < g.size(); ++u) {
      ASSERT_EQ(view.node_alive(u), rebuilt.node_alive(u))
          << scenario_name(scenario) << " node " << u;
    }
    log.seek(view, 0);
    EXPECT_EQ(view.alive_count(), g.size()) << scenario_name(scenario);
  }
}

TEST(TraceGen, FlashCrowdDepartsInOneDelta) {
  const auto g = make_graph(1024, 4, 4);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kFlashCrowd;
  spec.duration = 100.0;
  spec.crowd_fraction = 0.4;
  spec.crowd_time = 0.5;
  spec.kill_rate = 0.1;
  spec.revive_rate = 0.5;
  util::Rng rng(5);
  const auto log = make_trace(g, spec, rng);
  std::size_t biggest = 0;
  for (std::size_t e = 0; e < log.size(); ++e) {
    biggest = std::max(biggest, log.delta(e).node_kills.size());
  }
  // The crowd batch kills ~40% of the live population at once.
  EXPECT_GE(biggest, static_cast<std::size_t>(0.3 * 1024));
}

TEST(TraceGen, RegionalOutagesAreContiguousArcs) {
  const auto g = make_graph(1024, 4, 6);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kRegionalOutage;
  spec.duration = 400.0;
  spec.region_fraction = 0.1;
  spec.outages = 4;
  util::Rng rng(7);
  const auto log = make_trace(g, spec, rng);
  ASSERT_EQ(log.size(), 8u);  // kill + revive per outage
  for (std::size_t e = 0; e < log.size(); e += 2) {
    const auto& kills = log.delta(e).node_kills;
    ASSERT_FALSE(kills.empty());
    // Sorted positions must form one contiguous run modulo n.
    std::vector<NodeId> sorted = kills;
    std::sort(sorted.begin(), sorted.end());
    std::size_t gaps = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const NodeId next = sorted[(i + 1) % sorted.size()];
      const auto step = static_cast<NodeId>(
          (next + g.size() - sorted[i]) % static_cast<NodeId>(g.size()));
      if (step != 1) ++gaps;
    }
    EXPECT_LE(gaps, 1u) << "outage " << e;  // one wrap gap at most
    EXPECT_EQ(log.delta(e + 1).node_revives.size(), kills.size());
  }
}

TEST(TraceGen, AdversarialWavesHitTheTopHubs) {
  const auto g = make_graph(512, 6, 8);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kAdversarialWaves;
  spec.duration = 100.0;
  spec.wave_size = 10;
  spec.wave_period = 100.0;  // exactly one wave
  util::Rng rng(9);
  const auto log = make_trace(g, spec, rng);
  ASSERT_GE(log.size(), 1u);
  const auto hubs = high_degree_targets(g, 10);
  const auto& first = log.delta(0).node_kills;
  EXPECT_EQ(std::set<NodeId>(first.begin(), first.end()),
            std::set<NodeId>(hubs.begin(), hubs.end()));

  // The in-degree ranking really is descending.
  const auto in = g.in_degrees();
  for (std::size_t i = 1; i < hubs.size(); ++i) {
    EXPECT_GE(in[hubs[i - 1]], in[hubs[i]]);
  }
  // And the ByzantineSet bridge corrupts exactly that set.
  const auto adversary = hub_adversary(g, 10);
  EXPECT_EQ(adversary.count(), 10u);
  for (const NodeId u : hubs) EXPECT_TRUE(adversary.is_byzantine(u));
}

TEST(TraceGen, TorusRegionalOutagesAreRectangles) {
  util::Rng build_rng(12);
  const auto g = graph::build_kleinberg_overlay(32, 3, 2.0, build_rng);
  const metric::Torus2D torus = g.space().as_torus();
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kRegionalOutage;
  spec.duration = 400.0;
  spec.region_fraction = 0.05;  // ~51 nodes -> a ~7x8 block
  spec.outages = 4;
  util::Rng rng(13);
  const auto log = make_trace(g, spec, rng);  // kAuto resolves to kRect
  ASSERT_EQ(log.size(), 8u);  // kill + revive per outage
  const std::size_t target = static_cast<std::size_t>(0.05 * g.size());
  for (std::size_t e = 0; e < log.size(); e += 2) {
    const auto& kills = log.delta(e).node_kills;
    ASSERT_GE(kills.size(), target) << "outage " << e;
    // The footprint is a lattice rectangle: both axes span a contiguous
    // wrapped run whose extents multiply out to the kill count.
    std::set<std::uint32_t> rows, cols;
    for (const NodeId u : kills) {
      const auto [row, col] = torus.coords(g.position(u));
      rows.insert(row);
      cols.insert(col);
    }
    const auto wrapped_extent = [&](const std::set<std::uint32_t>& axis) {
      // The rectangle's span along one axis: side minus the biggest circular
      // gap between present coordinates, plus one.
      std::size_t best_gap = 0;
      std::uint32_t prev = *axis.rbegin();
      bool first = true;
      for (const std::uint32_t v : axis) {
        const std::uint32_t step =
            first ? static_cast<std::uint32_t>(
                        (v + torus.side() - *axis.rbegin()) % torus.side())
                  : v - prev;
        if (!first || axis.size() > 1) {
          best_gap = std::max<std::size_t>(best_gap, step);
        }
        prev = v;
        first = false;
      }
      return axis.size() == 1 ? std::size_t{1}
                              : static_cast<std::size_t>(torus.side()) -
                                    best_gap + 1;
    };
    EXPECT_EQ(wrapped_extent(rows) * wrapped_extent(cols), kills.size())
        << "outage " << e << " is not a full rectangle";
    EXPECT_EQ(log.delta(e + 1).node_revives.size(), kills.size());
  }
}

TEST(TraceGen, TorusL1BallOutagesRespectTheMetric) {
  util::Rng build_rng(14);
  const auto g = graph::build_kleinberg_overlay(32, 3, 2.0, build_rng);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kRegionalOutage;
  spec.region_shape = TraceSpec::RegionShape::kL1Ball;
  spec.duration = 100.0;
  spec.region_fraction = 0.04;  // ~41 nodes -> radius 4 ball (41 points)
  spec.outages = 2;
  util::Rng rng(15);
  const auto log = make_trace(g, spec, rng);
  ASSERT_EQ(log.size(), 4u);
  const metric::Space& space = g.space();
  for (std::size_t e = 0; e < log.size(); e += 2) {
    const auto& kills = log.delta(e).node_kills;
    ASSERT_FALSE(kills.empty());
    // An L1 ball has a center: some killed node within distance r of every
    // other, where |ball(r)| = 2r(r+1)+1 = kill count.
    std::int64_t r = 0;
    while (static_cast<std::size_t>(2 * r * (r + 1) + 1) < kills.size()) ++r;
    ASSERT_EQ(static_cast<std::size_t>(2 * r * (r + 1) + 1), kills.size())
        << "outage " << e << " kill count is not a whole lattice ball";
    bool centered = false;
    for (const NodeId c : kills) {
      bool all_within = true;
      for (const NodeId u : kills) {
        if (space.distance(g.position(c), g.position(u)) >
            static_cast<metric::Distance>(r)) {
          all_within = false;
          break;
        }
      }
      if (all_within) {
        centered = true;
        break;
      }
    }
    EXPECT_TRUE(centered) << "outage " << e << " has no L1 center";
  }
}

TEST(TraceGen, TwoDimensionalShapesRejectedOffTheTorus) {
  const auto g = make_graph(256, 4, 16);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kRegionalOutage;
  spec.region_shape = TraceSpec::RegionShape::kRect;
  util::Rng rng(17);
  EXPECT_THROW(static_cast<void>(make_trace(g, spec, rng)), std::invalid_argument);
  spec.region_shape = TraceSpec::RegionShape::kL1Ball;
  EXPECT_THROW(static_cast<void>(make_trace(g, spec, rng)), std::invalid_argument);
  // Explicit arcs remain valid on the torus (the legacy row-stripe shape).
  util::Rng build_rng(18);
  const auto tg = graph::build_kleinberg_overlay(16, 2, 2.0, build_rng);
  spec.region_shape = TraceSpec::RegionShape::kArc;
  EXPECT_NO_THROW(static_cast<void>(make_trace(tg, spec, rng)));
}

TEST(TraceGen, RejectsNonFiniteInputs) {
  // An infinite duration or rate never ends the generators' time loops, so
  // every non-finite duration, rate and period must be refused up front.
  const auto g = make_graph(256, 4, 21);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(22);
  const auto trace = [&](double TraceSpec::*field, double value,
                         TraceSpec::Scenario scenario) {
    TraceSpec spec;
    spec.scenario = scenario;
    spec.*field = value;
    static_cast<void>(make_trace(g, spec, rng));
  };
  const auto waves = [&](double ByzantineWaveSpec::*field, double value) {
    ByzantineWaveSpec spec;
    spec.*field = value;
    static_cast<void>(make_byzantine_waves(g, spec));
  };
  constexpr auto kPoisson = TraceSpec::Scenario::kPoissonChurn;
  constexpr auto kWaves = TraceSpec::Scenario::kAdversarialWaves;
  for (const double bad : {inf, nan}) {
    EXPECT_THROW(trace(&TraceSpec::duration, bad, kPoisson), std::invalid_argument);
    EXPECT_THROW(trace(&TraceSpec::batch_interval, bad, kPoisson),
                 std::invalid_argument);
    EXPECT_THROW(trace(&TraceSpec::kill_rate, bad, kPoisson), std::invalid_argument);
    EXPECT_THROW(trace(&TraceSpec::revive_rate, bad, kPoisson),
                 std::invalid_argument);
    EXPECT_THROW(trace(&TraceSpec::duration, bad, kWaves), std::invalid_argument);
    EXPECT_THROW(trace(&TraceSpec::wave_period, bad, kWaves), std::invalid_argument);
    EXPECT_THROW(waves(&ByzantineWaveSpec::duration, bad), std::invalid_argument);
    EXPECT_THROW(waves(&ByzantineWaveSpec::wave_period, bad), std::invalid_argument);
  }
}

TEST(TraceGen, AdversarialWavesHitTorusInDegreeHubs) {
  util::Rng build_rng(19);
  const auto g = graph::build_kleinberg_overlay(24, 4, 2.0, build_rng);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kAdversarialWaves;
  spec.duration = 100.0;
  spec.wave_size = 12;
  spec.wave_period = 100.0;  // exactly one wave
  util::Rng rng(20);
  const auto log = make_trace(g, spec, rng);
  ASSERT_GE(log.size(), 1u);
  const auto hubs = high_degree_targets(g, 12);
  const auto& first = log.delta(0).node_kills;
  EXPECT_EQ(std::set<NodeId>(first.begin(), first.end()),
            std::set<NodeId>(hubs.begin(), hubs.end()));
  // The hub ranking is by torus in-degree (reverse long links concentrate
  // on Kleinberg's well-placed nodes), and the ByzantineSet bridge corrupts
  // exactly that set.
  const auto in = g.in_degrees();
  for (std::size_t i = 1; i < hubs.size(); ++i) {
    EXPECT_GE(in[hubs[i - 1]], in[hubs[i]]);
  }
  const auto adversary = hub_adversary(g, 12);
  EXPECT_EQ(adversary.count(), 12u);
  for (const NodeId u : hubs) EXPECT_TRUE(adversary.is_byzantine(u));
}

TEST(TraceGen, LinkFlapTouchesOnlyLongLinks) {
  const auto g = make_graph(256, 4, 10);
  TraceSpec spec;
  spec.scenario = TraceSpec::Scenario::kLinkFlap;
  spec.duration = 20.0;
  spec.flap_fraction = 0.1;
  util::Rng rng(11);
  const auto log = make_trace(g, spec, rng);
  ASSERT_GT(log.size(), 0u);
  for (std::size_t e = 0; e < log.size(); ++e) {
    EXPECT_TRUE(log.delta(e).node_kills.empty());
    EXPECT_TRUE(log.delta(e).node_revives.empty());
    for (const auto slot : log.delta(e).link_kills) {
      // Locate the owning node and check the slot is past its short prefix.
      NodeId owner = 0;
      while (owner + 1 < g.size() && g.edge_base(owner + 1) <= slot) ++owner;
      EXPECT_GE(slot, g.edge_base(owner) + g.short_degree(owner))
          << "short link flapped at slot " << slot;
    }
  }
}

// ---------------------------------------------------------------------------
// Replayed churn vs direct mutation and stepped sessions

/// Deterministic epoch schedule shared by every driver below: after global
/// tick t, the view must be at epoch min(t / kTickPeriod, log.size()).
constexpr std::size_t kTickPeriod = 3;

void seek_for_tick(const ChurnLog& log, FailureView& view, std::size_t t) {
  log.seek(view, std::min<std::uint64_t>(t / kTickPeriod, log.size()));
}

ChurnLog mixed_trace(const OverlayGraph& g, std::uint64_t seed, int epochs) {
  ChurnLog log(g);
  util::Rng rng(seed);
  for (int e = 0; e < epochs; ++e) {
    for (int k = 0; k < 3; ++k) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      if (rng.next_bool(0.6)) {
        log.kill_node(u);
      } else {
        log.revive_node(u);
      }
    }
    log.commit(static_cast<double>(e));
  }
  return log;
}

TEST(ChurnReplay, ReplayedDeltasMatchDirectMutation) {
  const auto g = make_graph(512, 6, 12);
  const auto log = mixed_trace(g, 13, 60);
  const auto queries = random_queries(g, 60, 14);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  constexpr std::uint64_t kBase = 15;
  BatchConfig batch;
  batch.width = 8;

  // Driver A: churn via the delta log between ticks.
  FailureView view_a = log.baseline();
  const Router router_a(g, view_a, cfg);
  std::vector<RouteResult> got(queries.size());
  BatchPipeline pipe_a(router_a, queries, got, kBase, batch);
  std::size_t t = 0;
  while (pipe_a.tick()) {
    ++t;
    seek_for_tick(log, view_a, t);
  }

  // Driver B: the identical churn performed by direct kill/revive calls.
  FailureView view_b = log.baseline();
  const Router router_b(g, view_b, cfg);
  std::vector<RouteResult> want(queries.size());
  BatchPipeline pipe_b(router_b, queries, want, kBase, batch);
  std::size_t epoch_b = 0;
  std::size_t tb = 0;
  while (pipe_b.tick()) {
    ++tb;
    const std::size_t target = std::min(tb / kTickPeriod, log.size());
    for (; epoch_b < target; ++epoch_b) {
      const auto& d = log.delta(epoch_b);
      for (const NodeId u : d.node_kills) view_b.kill_node(u);
      for (const NodeId u : d.node_revives) view_b.revive_node(u);
    }
  }

  ASSERT_EQ(t, tb);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_outcome(got[i], want[i], "query " + std::to_string(i),
                        /*with_epochs=*/false);
  }
}

// The PR 2 width-1 stepped-session churn test, with the delta log driving
// the churn: a width-1 pipeline and manually stepped RouteSessions sharing
// one global tick counter must agree bit-for-bit, epochs included.
TEST(ChurnReplay, WidthOneReplayedChurnMatchesSteppedSessions) {
  const auto g = make_graph(512, 6, 16);
  const auto log = mixed_trace(g, 17, 80);
  const auto queries = random_queries(g, 40, 18);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  constexpr std::uint64_t kBase = 19;

  FailureView view = log.baseline();
  const Router router(g, view, cfg);
  std::vector<RouteResult> got(queries.size());
  BatchConfig batch;
  batch.width = 1;
  BatchPipeline pipeline(router, queries, got, kBase, batch);
  std::size_t t = 0;
  while (pipeline.tick()) {
    ++t;
    seek_for_tick(log, view, t);
  }

  FailureView ref_view = log.baseline();
  const Router ref_router(g, ref_view, cfg);
  std::size_t ref_t = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    RouteSession session(ref_router, queries[i].src, queries[i].target);
    util::Rng sub = util::substream(kBase, i);
    for (;;) {
      session.step(sub);
      const bool all_done = session.finished() && i + 1 == queries.size();
      if (!all_done) {
        ++ref_t;
        seek_for_tick(log, ref_view, ref_t);
      }
      if (session.finished()) break;
    }
    expect_same_outcome(got[i], session.progress(),
                        "stepped query " + std::to_string(i));
  }
  EXPECT_EQ(t, ref_t);
}

TEST(ChurnReplay, ReplayIsDeterministic) {
  const auto g = make_graph(1024, 6, 20);
  TraceSpec spec;
  spec.duration = 200.0;
  spec.kill_rate = 3.0;
  spec.revive_rate = 3.0;

  const auto run_once = [&](ReplayStats& stats) {
    util::Rng trace_rng(21);
    const auto log = make_trace(g, spec, trace_rng);
    FailureView view = log.baseline();
    const Router router(g, view);
    sim::EventQueue queue;
    ReplayConfig cfg;
    cfg.queries = 256;
    cfg.seed = 22;
    cfg.ticks_per_ms = 64.0;
    Replay replay(router, log, view, queue, cfg);
    stats = replay.run();
    return std::vector<RouteResult>(replay.results().begin(),
                                    replay.results().end());
  };

  ReplayStats s1, s2;
  const auto r1 = run_once(s1);
  const auto r2 = run_once(s2);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    expect_same_outcome(r1[i], r2[i], "replay query " + std::to_string(i));
  }
  EXPECT_EQ(s1.deltas_applied, s2.deltas_applied);
  EXPECT_EQ(s1.ticks, s2.ticks);
  EXPECT_EQ(s1.routed, s2.routed);
  EXPECT_EQ(s1.delivered, s2.delivered);

  // The whole trace applied; every query retired; epochs stamped within the
  // log's range.
  util::Rng trace_rng(21);
  const auto log = make_trace(g, spec, trace_rng);
  EXPECT_EQ(s1.deltas_applied, log.size());
  EXPECT_EQ(s1.final_epoch, log.size());
  EXPECT_EQ(s1.routed, 256u);
  bool any_mid_churn = false;
  for (const auto& res : r1) {
    EXPECT_LE(res.completion_epoch, log.size());
    if (res.completion_epoch > 0) any_mid_churn = true;
  }
  EXPECT_TRUE(any_mid_churn);  // the load really interleaved with the churn
}

// The replay's tick-debt clock, pinned against a hand-written driver: the
// same queries and per-query streams on a plain BatchPipeline, with each
// delta seeked in by hand once the pipeline has paid the ticks its
// timestamp implies. Results, tick count and final epoch must agree at
// widths 1 and 32 — a clock that changed but stayed deterministic fails here.
TEST(ChurnReplay, MatchesManualDriverAtWidthsOneAndThirtyTwo) {
  const auto g = make_graph(1024, 6, 26);
  TraceSpec spec;
  spec.duration = 100.0;
  spec.kill_rate = 3.0;
  spec.revive_rate = 3.0;
  util::Rng trace_rng(27);
  const auto log = make_trace(g, spec, trace_rng);
  ASSERT_GT(log.size(), 0u);

  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;

  for (const std::size_t width : {std::size_t{1}, std::size_t{32}}) {
    ReplayConfig rc;
    rc.queries = width == 1 ? 48 : 256;  // width 1 serializes; keep it cheap
    rc.batch.width = width;
    rc.seed = 28;
    rc.ticks_per_ms = 48.0;

    // Replay driver.
    FailureView view_r = log.baseline();
    const Router router_r(g, view_r, cfg);
    sim::EventQueue queue;
    Replay replay(router_r, log, view_r, queue, rc);
    const auto stats = replay.run();
    EXPECT_EQ(stats.deltas_applied, log.size());

    // Manual driver: same queries, same per-query streams, deltas applied by
    // hand at the identical tick debt.
    const std::vector<Query> queries(replay.queries().begin(),
                                     replay.queries().end());
    FailureView view_m = log.baseline();
    const Router router_m(g, view_m, cfg);
    std::vector<RouteResult> results(queries.size());
    BatchPipeline pipe(router_m, queries, results,
                       util::splitmix64(rc.seed ^ 0xc4ce'b9fe'1a85'ec53ULL),
                       rc.batch);
    // `debt` mirrors the replay's tick accounting (it jumps ahead once the
    // workload drains); `actual` counts real pipeline ticks, which is what
    // stats.ticks reports.
    std::size_t debt = 0, actual = 0;
    bool live = true;
    for (std::size_t e = 0; e < log.size(); ++e) {
      const auto target =
          static_cast<std::size_t>(log.delta(e).when * rc.ticks_per_ms);
      while (live && debt < target) {
        live = pipe.tick();
        ++debt;
        ++actual;
      }
      if (!live) debt = std::max(debt, target);
      log.seek(view_m, e + 1);
    }
    while (live) {
      live = pipe.tick();
      ++actual;
    }

    EXPECT_EQ(stats.ticks, actual) << "width=" << width;
    EXPECT_EQ(stats.final_epoch, view_m.epoch()) << "width=" << width;
    EXPECT_EQ(stats.routed, queries.size()) << "width=" << width;
    ASSERT_EQ(replay.results().size(), results.size());
    bool any_mid_churn = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_same_outcome(replay.results()[i], results[i],
                          "width=" + std::to_string(width) + " query=" +
                              std::to_string(i));
      if (results[i].completion_epoch > 0) any_mid_churn = true;
    }
    EXPECT_TRUE(any_mid_churn) << "width=" << width;
  }
}

// Per-trial traces fan over the experiment pool exactly like static-failure
// trials: each trial builds its own trace from its private substream and
// replays it, and the fan-out is deterministic and order-stable regardless
// of thread scheduling.
TEST(ChurnReplay, PerTrialTracesFanOverExperimentPool) {
  const auto g = make_graph(512, 5, 25);
  const auto trial = [&](std::size_t, util::Rng& rng) {
    TraceSpec spec;
    spec.duration = 50.0;
    spec.kill_rate = 2.0;
    spec.revive_rate = 2.0;
    const auto log = make_trace(g, spec, rng);
    FailureView view = log.baseline();
    const Router router(g, view);
    sim::EventQueue queue;
    ReplayConfig cfg;
    cfg.queries = 64;
    cfg.seed = rng();
    cfg.ticks_per_ms = 32.0;
    Replay replay(router, log, view, queue, cfg);
    const auto stats = replay.run();
    return std::vector<double>{static_cast<double>(stats.deltas_applied),
                               static_cast<double>(stats.delivered),
                               stats.mean_hops_delivered};
  };
  util::ThreadPool pool(4);
  const auto a = sim::run_trials_multi(pool, 8, 31, trial);
  const auto b = sim::run_trials_multi(pool, 8, 31, trial);
  EXPECT_EQ(a, b);  // bit-identical across runs despite threading
  ASSERT_EQ(a.size(), 8u);
  bool distinct = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i] != a[0]) distinct = true;
  }
  EXPECT_TRUE(distinct);  // trials really drew different traces
}

TEST(ChurnReplay, ValidatesItsBindings) {
  const auto g = make_graph(64, 3, 23);
  const auto log = mixed_trace(g, 24, 5);
  FailureView view = log.baseline();
  FailureView other = log.baseline();
  const Router router(g, other);  // router over a *different* view
  sim::EventQueue queue;
  EXPECT_THROW(Replay(router, log, view, queue), std::invalid_argument);

  // A view left mid-log by a previous run must be seeked back to epoch 0.
  log.seek(other, 2);
  EXPECT_THROW(Replay(router, log, other, queue), std::invalid_argument);
  log.seek(other, 0);
  Replay ok(router, log, other, queue);  // valid again after the rewind

  // The tick rate must be finite and positive: inf (and NaN, which inf times
  // a zero-length interval produces) cannot be cast to a tick count.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ReplayConfig cfg;
    cfg.ticks_per_ms = bad;
    EXPECT_THROW(Replay(router, log, other, queue, cfg), std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace p2p::churn
