// Tests for the telemetry subsystem (src/telemetry) and its wiring through
// the routing stack:
//  * registry shard-merge exactness against a serial reference;
//  * snapshot isolation (a snapshot never moves after later recording) and
//    counter monotonicity across snapshots under concurrent writers (the
//    TSan-labeled hammer — this suite carries the "concurrency" ctest label);
//  * flight-recorder trails pinned hop-for-hop against RouteResult::path;
//  * per-query route/secure/service metric bundles agreeing with the result
//    aggregates they mirror;
//  * exporter output sanity (Prometheus text exposition + JSON).
//
// The suite also runs in a -DP2P_TELEMETRY=OFF build, where recording
// compiles out. There the same cases check the compile-out contract instead:
// handles, recorders and exporters still work, every recorded value reads 0
// (recorded() below), and routes are unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/route_telemetry.h"
#include "core/router.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "service/routing_service.h"
#include "service/service_telemetry.h"
#include "service/view_publisher.h"
#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace p2p::telemetry {
namespace {

using core::Query;
using core::RouteResult;
using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

/// What the registry reads back for a value recorded through it: the value
/// itself, or 0 when recording is compiled out.
constexpr std::uint64_t recorded(std::uint64_t value) { return kCompiledIn ? value : 0; }

OverlayGraph make_graph(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = true;
  return graph::build_overlay(spec, rng);
}

std::vector<Query> make_queries(const OverlayGraph& g, std::size_t count,
                                std::uint64_t seed) {
  std::vector<Query> queries(count);
  util::Rng rng(seed);
  for (Query& q : queries) {
    const auto src = static_cast<NodeId>(rng.next_below(g.size()));
    auto dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng.next_below(g.size()));
    q = {src, g.position(dst)};
  }
  return queries;
}

// -- Registry unit tests ------------------------------------------------------

TEST(Registry, RegistrationValidation) {
  Registry reg(2);
  (void)reg.counter("a");
  EXPECT_THROW((void)reg.counter("a"), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("a"), std::invalid_argument);
  reg.seal();
  EXPECT_TRUE(reg.sealed());
  EXPECT_THROW((void)reg.counter("b"), std::invalid_argument);
  EXPECT_THROW((void)reg.recorder(2), std::out_of_range);
  EXPECT_THROW(Registry(0), std::invalid_argument);
}

TEST(Registry, DefaultHandlesAndRecordersAreInert) {
  Registry reg(1);
  const Counter c = reg.counter("c");
  Recorder detached;  // default: drops everything
  detached.add(c, 5);
  Recorder live = reg.recorder(0);
  live.add(Counter{}, 7);  // default handle: no-op
  EXPECT_FALSE(detached.attached());
  EXPECT_TRUE(live.attached());
  EXPECT_EQ(reg.snapshot().counter_or("c"), 0u);
}

TEST(Registry, ShardMergeMatchesSerialReference) {
  constexpr std::size_t kShards = 4;
  Registry reg(kShards);
  const Counter c = reg.counter("ops");
  const Gauge gauge = reg.gauge("level");
  const Histogram h = reg.histogram("latency", 2.0, 1 << 10);

  // Serial reference mirrors of the three merge rules.
  std::uint64_t ref_count = 0;
  std::uint64_t ref_updates = 0;
  const auto ref_edges = util::log_bucket_edges(2.0, 1 << 10);
  std::vector<std::uint64_t> ref_bins(ref_edges.size() - 1, 0);
  std::uint64_t ref_total = 0;

  util::Rng rng(42);
  for (std::size_t s = 0; s < kShards; ++s) {
    Recorder rec = reg.recorder(s);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t n = rng.next_below(16);
      rec.add(c, n);
      ref_count += n;
      const std::uint64_t v = rng.next_below(1 << 12);
      rec.set_min(gauge, v);
      rec.set_max(gauge, v);  // same cell pair: last op wins the value slot
      ref_updates += 2;
      rec.observe(h, v);
      ++ref_bins[util::log_bucket_index(ref_edges, v)];
      ++ref_total;
    }
  }

  if constexpr (!kCompiledIn) {
    ref_count = ref_updates = ref_total = 0;
    ref_bins.assign(ref_bins.size(), 0);
  }
  const Snapshot snap = reg.snapshot(3, 9);
  EXPECT_EQ(snap.epoch_lo, 3u);
  EXPECT_EQ(snap.epoch_hi, 9u);
  EXPECT_EQ(snap.counter_or("ops"), ref_count);

  const GaugeAggregate* g = snap.gauge("level");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->updates, ref_updates);

  const HistogramAggregate* hist = snap.histogram("latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total, ref_total);
  ASSERT_EQ(hist->counts.size(), ref_bins.size());
  for (std::size_t b = 0; b < hist->counts.size(); ++b) {
    EXPECT_EQ(hist->counts[b], ref_bins[b]) << "bin " << b;
  }
  EXPECT_DOUBLE_EQ(hist->p50(),
                   util::quantile_from_log_bins(ref_edges, ref_bins, ref_total, 0.50));
  EXPECT_DOUBLE_EQ(hist->p99(),
                   util::quantile_from_log_bins(ref_edges, ref_bins, ref_total, 0.99));
}

TEST(Registry, GaugeAggregatesMinMaxAcrossShards) {
  Registry reg(3);
  const Gauge g = reg.gauge("epoch");
  reg.recorder(0).set(g, 10);
  reg.recorder(2).set(g, 4);  // shard 1 never sets it
  const Snapshot snap = reg.snapshot();
  const GaugeAggregate* agg = snap.gauge("epoch");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->set(), kCompiledIn);
  EXPECT_EQ(agg->min, recorded(4));
  EXPECT_EQ(agg->max, recorded(10));
  EXPECT_EQ(agg->sum, recorded(14));
  EXPECT_EQ(agg->updates, recorded(2));

  Registry reg2(1);
  (void)reg2.gauge("never");
  const Snapshot snap2 = reg2.snapshot();  // gauge() points into it
  const GaugeAggregate* none = snap2.gauge("never");
  ASSERT_NE(none, nullptr);
  EXPECT_FALSE(none->set());
}

TEST(Registry, SnapshotIsolation) {
  Registry reg(1);
  const Counter c = reg.counter("n");
  Recorder rec = reg.recorder(0);
  rec.add(c, 5);
  const Snapshot before = reg.snapshot();
  rec.add(c, 100);
  EXPECT_EQ(before.counter_or("n"), recorded(5));  // unchanged by later recording
  EXPECT_EQ(reg.snapshot().counter_or("n"), recorded(105));
}

// The TSan hammer: one writer per shard at full rate, the main thread
// snapshotting concurrently. Counter values across successive snapshots must
// be monotone, and the final merge exact.
TEST(Registry, ConcurrentRecordingHammer) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 200'000;
  Registry reg(kThreads);
  const Counter c = reg.counter("ops");
  const Histogram h = reg.histogram("vals", 2.0, 1 << 8);
  reg.seal();

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, c, h, t] {
      Recorder rec = reg.recorder(t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        rec.add(c);
        rec.observe(h, (i & 0xff) + 1);
      }
    });
  }

  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = reg.snapshot().counter_or("ops");
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& w : writers) w.join();

  const Snapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_or("ops"), recorded(kThreads * kOpsPerThread));
  EXPECT_EQ(final_snap.histogram("vals")->total, recorded(kThreads * kOpsPerThread));
}

TEST(Registry, ConcurrentRecordersSealOnce) {
  // Service workers take their recorders at job start, all at once, from a
  // registry nobody sealed: the implicit seal must run exactly once and
  // every handle must see the allocated cells.
  constexpr std::size_t kThreads = 8;
  for (int round = 0; round < 50; ++round) {
    Registry reg(kThreads);
    const Counter c = reg.counter("ops");
    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&reg, &go, c, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        Recorder rec = reg.recorder(t);
        rec.add(c);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& w : writers) w.join();
    ASSERT_TRUE(reg.sealed());
    ASSERT_EQ(reg.snapshot().counter_or("ops"), recorded(kThreads)) << "round " << round;
  }
}

// -- Flight recorder ----------------------------------------------------------

TEST(TraceBuffer, SamplesOneInK) {
  TraceBuffer buf(64, 4);
  std::size_t traced = 0;
  for (std::uint64_t q = 0; q < 32; ++q) {
    const std::uint32_t t = buf.begin(q, 0);
    if (t != TraceBuffer::kNone) {
      ++traced;
      buf.end(t, 0);
    }
  }
  EXPECT_EQ(traced, 8u);  // 1 in 4
  EXPECT_EQ(buf.sampled(), 8u);

  TraceBuffer off(64, 0);
  EXPECT_EQ(off.begin(0, 0), TraceBuffer::kNone);
  EXPECT_EQ(off.sampled(), 0u);
}

TEST(TraceBuffer, RingRecyclesClosedSlotsAndTruncates) {
  TraceBuffer buf(2, 1, /*max_hops=*/3);
  for (std::uint64_t q = 0; q < 5; ++q) {
    const std::uint32_t t = buf.begin(q, 7);
    ASSERT_NE(t, TraceBuffer::kNone);
    for (std::uint32_t hop = 0; hop < 5; ++hop) buf.hop(t, hop, 0, 0);
    buf.end(t, 1);
  }
  std::size_t closed = 0;
  for (const Trail& trail : buf.slots()) {
    if (!trail.closed) continue;
    ++closed;
    EXPECT_TRUE(trail.truncated);
    EXPECT_EQ(trail.hops.size(), 3u);  // capped
    EXPECT_EQ(trail.src, 7u);
    EXPECT_EQ(trail.outcome, 1u);
  }
  EXPECT_EQ(closed, 2u);  // ring capacity
}

// The flight-recorder acceptance check: a sampled trail must reproduce the
// session's RouteResult::path hop-for-hop (path[0] is the source; every
// subsequent entry is one recorded hop), with the matching outcome.
TEST(FlightRecorder, TrailsMatchRecordedPaths) {
  const auto g = make_graph(512, 6, 3);
  util::Rng fail_rng(9);
  const auto view = FailureView::with_node_failures(g, 0.2, fail_rng);
  core::RouterConfig rcfg;
  rcfg.record_path = true;
  const core::Router router(g, view, rcfg);

  const auto queries = make_queries(g, 64, 17);
  std::vector<RouteResult> results(queries.size());

  TraceBuffer trace(/*capacity=*/queries.size(), /*sample_every=*/1,
                    /*max_hops=*/100'000);
  core::BatchConfig batch;
  batch.trace = &trace;
  core::BatchPipeline pipeline(router, queries, results, 123, batch);
  pipeline.run();

  if constexpr (!kCompiledIn) {
    // Hop capture compiles out: nothing is sampled, and the traced run
    // routes exactly like an untraced one.
    EXPECT_EQ(trace.sampled(), 0u);
    std::vector<RouteResult> untraced(queries.size());
    core::BatchPipeline plain(router, queries, untraced, 123, core::BatchConfig{});
    plain.run();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i].status, untraced[i].status) << "query " << i;
      EXPECT_EQ(results[i].path, untraced[i].path) << "query " << i;
    }
    return;
  }
  EXPECT_EQ(trace.sampled(), queries.size());
  std::size_t checked = 0;
  for (const Trail& trail : trace.slots()) {
    if (!trail.closed) continue;
    const RouteResult& res = results[trail.query];
    ASSERT_FALSE(trail.truncated);
    EXPECT_EQ(trail.src, queries[trail.query].src);
    EXPECT_EQ(trail.outcome, static_cast<std::uint8_t>(res.status));
    ASSERT_EQ(trail.hops.size() + 1, res.path.size()) << "query " << trail.query;
    for (std::size_t i = 0; i < trail.hops.size(); ++i) {
      EXPECT_EQ(trail.hops[i].node, res.path[i + 1])
          << "query " << trail.query << " hop " << i;
    }
    ++checked;
  }
  EXPECT_EQ(checked, queries.size());
}

// -- Route/secure metric bundles ---------------------------------------------

TEST(RouteTelemetry, CountersMatchResultAggregates) {
  const auto g = make_graph(512, 6, 5);
  util::Rng fail_rng(2);
  const auto view = FailureView::with_node_failures(g, 0.3, fail_rng);
  const core::Router router(g, view, {});

  Registry reg(1);
  core::RouteMetrics metrics = core::RouteMetrics::create(reg);
  core::RouteTelemetry sink{reg.recorder(0), metrics};

  const auto queries = make_queries(g, 256, 23);
  std::vector<RouteResult> results(queries.size());
  core::BatchConfig batch;
  batch.telemetry = &sink;
  core::BatchPipeline pipeline(router, queries, results, 55, batch);
  pipeline.run();

  std::uint64_t delivered = 0, hops = 0, backtracks = 0;
  for (const RouteResult& r : results) {
    if (r.delivered()) ++delivered;
    hops += r.hops;
    backtracks += r.backtracks;
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("route.queries"), recorded(queries.size()));
  EXPECT_EQ(snap.counter_or("route.delivered"), recorded(delivered));
  EXPECT_EQ(snap.counter_or("route.hops"), recorded(hops));
  EXPECT_EQ(snap.counter_or("route.backtracks"), recorded(backtracks));
  EXPECT_EQ(snap.histogram("route.hop_hist")->total, recorded(queries.size()));
}

TEST(SecureTelemetry, CountersMatchResultAggregates) {
  const auto g = make_graph(512, 6, 7);
  util::Rng fail_rng(4);
  auto view = FailureView::with_node_failures(g, 0.1, fail_rng);
  auto byz = failure::ByzantineSet::random(g, 0.1, fail_rng);
  failure::ReputationTable table(g);

  Registry reg(1);
  core::SecureRouteMetrics metrics = core::SecureRouteMetrics::create(reg);
  core::SecureTelemetry sink{reg.recorder(0), metrics};

  core::SecureRouterConfig cfg;
  cfg.paths = 2;
  cfg.max_paths = 4;
  cfg.reputation = &table;
  cfg.telemetry = &sink;
  const core::SecureRouter router(g, view, byz, cfg);

  const auto queries = make_queries(g, 64, 31);
  std::uint64_t delivered = 0, messages = 0, launched = 0, escalations = 0;
  util::Rng rng(77);
  for (const Query& q : queries) {
    const auto r = router.route(q.src, q.target, rng);
    if (r.delivered) ++delivered;
    messages += r.total_messages;
    launched += r.walks_launched;
    escalations += r.escalations;
  }

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("secure.queries"), recorded(queries.size()));
  EXPECT_EQ(snap.counter_or("secure.delivered"), recorded(delivered));
  EXPECT_EQ(snap.counter_or("secure.messages"), recorded(messages));
  EXPECT_EQ(snap.counter_or("secure.walks_launched"), recorded(launched));
  EXPECT_EQ(snap.counter_or("secure.escalations"), recorded(escalations));
  // Reputation attribution fires when walks die/deliver against the table.
  EXPECT_EQ(snap.histogram("secure.messages_hist")->total, recorded(queries.size()));
}

// -- Service integration ------------------------------------------------------

TEST(ServiceTelemetry, ServiceCountersMatchStats) {
  const auto g = make_graph(1024, 8, 13);
  service::ViewPublisher pub(FailureView::all_alive(g));

  constexpr std::size_t kWorkers = 4;
  Registry reg(kWorkers + 1);  // workers + the publisher's own shard
  service::ServiceTelemetry telem = service::ServiceTelemetry::create(reg);
  service::PublisherMetrics pub_metrics = service::PublisherMetrics::create(reg);
  FlightRecorder flight(kWorkers, 32, /*sample_every=*/8);
  telem.flight = &flight;
  pub.attach_telemetry(reg.recorder(kWorkers), pub_metrics);

  service::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.stripe = 64;
  cfg.telemetry = &telem;
  service::RoutingService svc(pub, cfg);

  const auto queries = make_queries(g, 1024, 41);
  std::vector<RouteResult> results(queries.size());
  const auto stats = svc.route_all(queries, results);

  const Snapshot snap = reg.snapshot(stats.min_epoch, stats.max_epoch);
  EXPECT_EQ(snap.counter_or("service.route.queries"), recorded(stats.routed));
  EXPECT_EQ(snap.counter_or("service.route.delivered"), recorded(stats.delivered));
  EXPECT_EQ(snap.counter_or("service.stripes"), recorded(stats.stripes));

  const GaugeAggregate* lo = snap.gauge("service.stripe_epoch_min");
  const GaugeAggregate* hi = snap.gauge("service.stripe_epoch_max");
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(lo->min, recorded(stats.min_epoch));
  EXPECT_EQ(hi->max, recorded(stats.max_epoch));

  const HistogramAggregate* staleness = snap.histogram("service.staleness_hist");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->total, recorded(stats.stripes));

  // Publisher side: a couple of publishes through the attached recorder.
  pub.writer_view().kill_node(0);
  (void)pub.publish();
  (void)pub.publish();
  const Snapshot after = reg.snapshot();
  EXPECT_EQ(after.counter_or("publisher.publications"), recorded(2));
  EXPECT_EQ(after.gauge("publisher.latest_epoch")->max, recorded(pub.latest_epoch()));

  // Sampled trails landed in the per-worker buffers (none when compiled out).
  if constexpr (kCompiledIn) {
    EXPECT_GT(flight.trail_count(), 0u);
  } else {
    EXPECT_EQ(flight.trail_count(), 0u);
  }
  EXPECT_NE(flight.dump_json().find("\"trails\""), std::string::npos);
}

// Telemetry must never perturb results: the same workload with and without a
// wired registry routes bit-identically.
TEST(ServiceTelemetry, RecordingDoesNotPerturbResults) {
  const auto g = make_graph(512, 6, 19);
  const auto queries = make_queries(g, 512, 43);

  const auto run = [&](bool wire) {
    service::ViewPublisher pub(FailureView::all_alive(g));
    Registry reg(5);
    service::ServiceTelemetry telem = service::ServiceTelemetry::create(reg);
    service::ServiceConfig cfg;
    cfg.workers = 4;
    cfg.stripe = 64;
    cfg.seed = 99;
    if (wire) cfg.telemetry = &telem;
    service::RoutingService svc(pub, cfg);
    std::vector<RouteResult> results(queries.size());
    (void)svc.route_all(queries, results);
    return results;
  };

  const auto with = run(true);
  const auto without = run(false);
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].status, without[i].status) << i;
    EXPECT_EQ(with[i].hops, without[i].hops) << i;
  }
}

// -- Exporters ----------------------------------------------------------------

TEST(Exporters, PrometheusTextExposition) {
  Registry reg(1);
  const Counter c = reg.counter("route.queries");
  const Gauge g = reg.gauge("publisher.latest_epoch");
  const Histogram h = reg.histogram("route.hop_hist", 2.0, 16);
  Recorder rec = reg.recorder(0);
  rec.add(c, 12);
  rec.set(g, 7);
  rec.observe(h, 3);
  rec.observe(h, 9);

  const std::string text = prometheus_text(reg.snapshot(2, 5));
  EXPECT_NE(text.find("p2p_snapshot_epoch_lo 2"), std::string::npos);
  EXPECT_NE(text.find("p2p_snapshot_epoch_hi 5"), std::string::npos);
  EXPECT_NE(text.find("p2p_route_queries " + std::to_string(recorded(12))),
            std::string::npos);
  EXPECT_NE(text.find("p2p_publisher_latest_epoch"), std::string::npos);
  EXPECT_NE(text.find("p2p_route_hop_hist_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("p2p_route_hop_hist_count " + std::to_string(recorded(2))),
            std::string::npos);
}

TEST(Exporters, JsonShape) {
  Registry reg(1);
  const Counter c = reg.counter("route.queries");
  const Histogram h = reg.histogram("route.hop_hist", 2.0, 16);
  Recorder rec = reg.recorder(0);
  rec.add(c, 3);
  rec.observe(h, 4);

  const std::string text = json_text(reg.snapshot(1, 4));
  EXPECT_NE(text.find("\"epoch_range\": [1, 4]"), std::string::npos);
  EXPECT_NE(text.find("\"route.queries\": " + std::to_string(recorded(3))),
            std::string::npos);
  EXPECT_NE(text.find("\"route.hop_hist\""), std::string::npos);
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"buckets\""), std::string::npos);
}

}  // namespace
}  // namespace p2p::telemetry
