// Tests for the concurrent routing service (service/view_publisher.h,
// service/routing_service.h): publication-protocol unit tests, the
// no-torn-read hammer (readers pinning under a full-rate churn writer must
// only ever observe exact published epochs), snapshot-vs-direct route
// equivalence at every epoch, worker-count-independent determinism, and the
// graceful drain/shutdown contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "service/routing_service.h"
#include "service/view_publisher.h"
#include "util/rng.h"

namespace p2p::service {
namespace {

using core::Query;
using core::RouteResult;
using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph make_graph(std::uint64_t n, std::size_t links,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  return graph::build_overlay(spec, rng);
}

churn::ChurnLog make_node_churn(const OverlayGraph& g, std::size_t epochs,
                                std::uint64_t seed) {
  churn::TraceSpec spec;
  spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  spec.duration = static_cast<double>(epochs);
  spec.batch_interval = 1.0;
  spec.kill_rate = 2.0;
  spec.revive_rate = 2.0;
  util::Rng rng(seed);
  return churn::make_trace(g, spec, rng);
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

/// Order-sensitive liveness fingerprint of a view: any torn read (a snapshot
/// caught between two published epochs) produces a checksum matching no
/// published epoch.
std::uint64_t view_checksum(const FailureView& view) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(view.epoch());
  mix(view.alive_count());
  for (NodeId u = 0; u < view.graph().size(); ++u) {
    mix(view.node_alive(u) ? u * 2 + 1 : u * 2);
  }
  return h;
}

bool results_equal(const RouteResult& a, const RouteResult& b) {
  return a.status == b.status && a.hops == b.hops &&
         a.backtracks == b.backtracks && a.reroutes == b.reroutes &&
         a.completion_epoch == b.completion_epoch;
}

// -- ViewPublisher unit tests -----------------------------------------------

TEST(ViewPublisher, InitialSnapshotIsPublished) {
  const auto g = make_graph(64, 3, 1);
  ViewPublisher pub(FailureView::all_alive(g));
  EXPECT_EQ(pub.sequence(), 0u);
  EXPECT_EQ(pub.publications(), 1u);
  EXPECT_EQ(pub.latest_epoch(), 0u);

  Reader reader = pub.make_reader();
  const ViewSnapshot* snap = reader.pin();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->sequence, 0u);
  EXPECT_EQ(snap->view.alive_count(), g.size());
  reader.unpin();
}

TEST(ViewPublisher, PublishAdvancesSequenceAndEpoch) {
  const auto g = make_graph(64, 3, 1);
  ViewPublisher pub(FailureView::all_alive(g));
  pub.writer_view().kill_node(5);
  const ViewSnapshot* snap = pub.publish();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->sequence, 1u);
  EXPECT_EQ(snap->epoch, pub.writer_view().epoch());
  EXPECT_EQ(pub.sequence(), 1u);
  EXPECT_EQ(pub.latest_epoch(), snap->epoch);
  EXPECT_FALSE(snap->view.node_alive(5));
  EXPECT_EQ(snap->view.alive_count(), g.size() - 1);
}

TEST(ViewPublisher, PinnedSnapshotSurvivesLaterPublishes) {
  const auto g = make_graph(64, 3, 1);
  ViewPublisher pub(FailureView::all_alive(g));
  Reader reader = pub.make_reader();
  const ViewSnapshot* pinned = reader.pin();
  const std::uint64_t pinned_checksum = view_checksum(pinned->view);

  for (NodeId u = 0; u < 8; ++u) {
    pub.writer_view().kill_node(u);
    pub.publish();
  }
  // The pinned snapshot is retired but must not be reclaimed or mutated.
  EXPECT_GE(pub.retired_pending(), 1u);
  EXPECT_EQ(view_checksum(pinned->view), pinned_checksum);
  EXPECT_EQ(pinned->view.alive_count(), g.size());

  reader.unpin();
  pub.reclaim();
  EXPECT_EQ(pub.retired_pending(), 0u);
  EXPECT_GE(pub.reclaimed(), 1u);
}

TEST(ViewPublisher, ReaderSlotsAreBoundedAndRecycled) {
  const auto g = make_graph(16, 2, 1);
  ViewPublisher pub(FailureView::all_alive(g), 2);
  Reader a = pub.make_reader();
  {
    Reader b = pub.make_reader();
    EXPECT_THROW((void)pub.make_reader(), std::invalid_argument);
  }
  // b released its slot on destruction.
  Reader c = pub.make_reader();
  EXPECT_TRUE(c.registered());
}

// -- No-torn-read hammer ----------------------------------------------------

// Readers pin as fast as they can while the writer applies one delta per
// publish at full speed. Every pinned snapshot must (a) carry a
// non-decreasing sequence per reader, (b) have view.epoch() == snap->epoch,
// and (c) checksum-match the independently materialized view of that exact
// epoch — a torn or in-place-mutated view cannot.
TEST(ViewPublisher, HammeredReadersSeeOnlyExactPublishedEpochs) {
  const auto g = make_graph(512, 4, 2);
  const auto log = make_node_churn(g, 200, 3);
  ASSERT_GT(log.size(), 0u);

  std::vector<std::uint64_t> checksum_by_epoch(log.size() + 1);
  for (std::uint64_t e = 0; e <= log.size(); ++e) {
    checksum_by_epoch[e] = view_checksum(log.materialize(e));
  }

  ViewPublisher pub(log.baseline());
  constexpr std::size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> pins{0};
  std::atomic<std::size_t> readers_started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Reader reader = pub.make_reader();
      std::uint64_t last_sequence = 0;
      bool started = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const ViewSnapshot* snap = reader.pin();
        const bool ok = snap->sequence >= last_sequence &&
                        snap->view.epoch() == snap->epoch &&
                        snap->epoch < checksum_by_epoch.size() &&
                        view_checksum(snap->view) ==
                            checksum_by_epoch[snap->epoch];
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
        last_sequence = snap->sequence;
        reader.unpin();
        pins.fetch_add(1, std::memory_order_relaxed);
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::size_t i = 0; i < log.size(); ++i) {
    pub.apply_and_publish(log.delta(i));
  }
  // On a single-core host the writer can finish before any reader is ever
  // scheduled; keep the latest epoch live until every reader verified at
  // least one pin, so the assertions below are meaningful.
  while (readers_started.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(pins.load(), 0u);
  EXPECT_EQ(pub.sequence(), log.size());
  EXPECT_EQ(pub.latest_epoch(), log.size());
  pub.reclaim();
  EXPECT_EQ(pub.retired_pending(), 0u);
}

// -- RoutingService ---------------------------------------------------------

TEST(RoutingService, MatchesDirectRouterAtEveryPublishedEpoch) {
  const auto g = make_graph(256, 4, 4);
  const auto log = make_node_churn(g, 16, 5);
  const auto queries = make_queries(g, 300, 6);

  ViewPublisher pub(log.baseline());
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.stripe = 64;
  cfg.seed = 99;
  RoutingService svc(pub, cfg);

  for (std::uint64_t epoch = 0; epoch <= log.size(); ++epoch) {
    if (epoch > 0) pub.apply_and_publish(log.delta(epoch - 1));

    std::vector<RouteResult> got(queries.size());
    const ServiceStats stats = svc.route_all(queries, got);
    ASSERT_EQ(stats.routed, queries.size());
    EXPECT_EQ(stats.min_epoch, epoch);
    EXPECT_EQ(stats.max_epoch, epoch);

    // Direct reference: the same stripe grid over the independently
    // materialized view, one BatchPipeline per stripe with the published
    // per-stripe seed base — no publisher, no threads.
    const FailureView direct_view = log.materialize(epoch);
    const core::Router router(g, direct_view, cfg.router);
    std::vector<RouteResult> want(queries.size());
    for (std::size_t k = 0; k * cfg.stripe < queries.size(); ++k) {
      const std::size_t lo = k * cfg.stripe;
      const std::size_t hi = std::min(queries.size(), lo + cfg.stripe);
      core::BatchPipeline(router,
                          std::span<const Query>(queries).subspan(lo, hi - lo),
                          std::span<RouteResult>(want).subspan(lo, hi - lo),
                          RoutingService::stripe_seed_base(cfg.seed, k),
                          cfg.batch)
          .run();
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results_equal(got[i], want[i]))
          << "epoch " << epoch << " query " << i;
      EXPECT_EQ(got[i].completion_epoch, epoch) << "query " << i;
    }
  }
}

TEST(RoutingService, ResultsIndependentOfWorkerCount) {
  const auto g = make_graph(256, 4, 7);
  const auto log = make_node_churn(g, 8, 8);
  const auto queries = make_queries(g, 500, 9);

  ViewPublisher pub(log.baseline());
  for (std::size_t i = 0; i < log.size(); ++i) {
    pub.apply_and_publish(log.delta(i));
  }

  std::vector<RouteResult> baseline;
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.stripe = 32;  // 500 queries -> 16 stripes, a ragged tail included
    cfg.seed = 41;
    RoutingService svc(pub, cfg);
    EXPECT_EQ(svc.worker_count(), workers);
    std::vector<RouteResult> results(queries.size());
    const ServiceStats stats = svc.route_all(queries, results);
    ASSERT_EQ(stats.routed, queries.size());
    ASSERT_EQ(stats.stripes, (queries.size() + cfg.stripe - 1) / cfg.stripe);
    EXPECT_GT(stats.delivered, 0u);
    if (baseline.empty()) {
      baseline = std::move(results);
      continue;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results_equal(results[i], baseline[i]))
          << "workers " << workers << " query " << i;
    }
  }
}

TEST(RoutingService, RoutesUnderConcurrentWriter) {
  const auto g = make_graph(512, 4, 10);
  const auto log = make_node_churn(g, 400, 11);
  const auto queries = make_queries(g, 2000, 12);

  ViewPublisher pub(log.baseline());
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.stripe = 64;
  cfg.seed = 13;
  RoutingService svc(pub, cfg);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        pub.apply_and_publish(log.delta(i));
      }
      // Rewind to the baseline so repeated passes stay exact inversions.
      for (std::size_t i = log.size(); i-- > 0;) {
        pub.writer_view().revert(log.delta(i));
      }
      pub.publish();
    }
  });

  std::vector<RouteResult> results(queries.size());
  const ServiceStats stats = svc.route_all(queries, results);
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(stats.routed, queries.size());
  EXPECT_EQ(stats.staleness.size(), stats.stripes);
  EXPECT_GT(stats.delivered, 0u);
  // Every result is stamped with an epoch the writer actually published.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_LE(results[i].completion_epoch, log.size()) << "query " << i;
  }
  EXPECT_LE(stats.max_epoch, log.size());
}

TEST(RoutingService, StopBeforeRouteAllRoutesNothing) {
  const auto g = make_graph(128, 3, 14);
  ViewPublisher pub(FailureView::all_alive(g));
  ServiceConfig cfg;
  cfg.workers = 2;
  RoutingService svc(pub, cfg);
  svc.request_stop();
  EXPECT_TRUE(svc.stop_requested());

  const auto queries = make_queries(g, 100, 15);
  std::vector<RouteResult> results(queries.size());
  const ServiceStats stats = svc.route_all(queries, results);
  EXPECT_EQ(stats.routed, 0u);
  EXPECT_EQ(stats.stripes, 0u);
  EXPECT_EQ(stats.delivered, 0u);
}

TEST(RoutingService, ConcurrentStopDrainsToAStripePrefix) {
  const auto g = make_graph(1024, 4, 16);
  ViewPublisher pub(FailureView::all_alive(g));
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.stripe = 16;
  RoutingService svc(pub, cfg);

  const auto queries = make_queries(g, 6000, 17);
  // Sentinel defaults: a query the service never routed keeps kStuck/0 hops.
  std::vector<RouteResult> results(queries.size());
  std::thread stopper([&svc] { svc.request_stop(); });
  const ServiceStats stats = svc.route_all(queries, results);
  stopper.join();

  EXPECT_LE(stats.routed, queries.size());
  EXPECT_EQ(stats.routed, stats.stripes * cfg.stripe);
  // All-alive overlay: every routed query delivers, so the routed prefix is
  // distinguishable from untouched sentinel slots.
  for (std::size_t i = 0; i < stats.routed; ++i) {
    EXPECT_EQ(results[i].status, RouteResult::Status::kDelivered)
        << "query " << i;
  }
  for (std::size_t i = stats.routed; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, RouteResult::Status::kStuck) << "query " << i;
    ASSERT_EQ(results[i].hops, 0u) << "query " << i;
  }

  // Sticky: a second route_all refuses work.
  const ServiceStats again = svc.route_all(queries, results);
  EXPECT_EQ(again.routed, 0u);
}

// A stripe wider than any span is one stripe: the stripe count must not wrap
// to zero (which would report every query routed while writing none).
TEST(RoutingService, StripeOfSizeMaxRoutesEveryQuery) {
  const auto g = make_graph(256, 4, 19);
  ViewPublisher pub(FailureView::all_alive(g));
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.stripe = std::numeric_limits<std::size_t>::max();
  cfg.seed = 20;
  RoutingService svc(pub, cfg);

  const auto queries = make_queries(g, 100, 21);
  std::vector<RouteResult> results(queries.size());
  const ServiceStats stats = svc.route_all(queries, results);
  EXPECT_EQ(stats.routed, queries.size());
  EXPECT_EQ(stats.stripes, 1u);

  // The one stripe is query stream 0: the whole span on stripe seed 0.
  const core::Router router(g, pub.writer_view(), cfg.router);
  std::vector<RouteResult> want(queries.size());
  core::BatchPipeline(router, queries, want,
                      RoutingService::stripe_seed_base(cfg.seed, 0), cfg.batch)
      .run();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // All-alive overlay: an unwritten slot would keep the kStuck sentinel.
    EXPECT_EQ(results[i].status, RouteResult::Status::kDelivered)
        << "query " << i;
    ASSERT_TRUE(results_equal(results[i], want[i])) << "query " << i;
  }
}

TEST(RoutingService, ValidatesQueriesAndConfigUpFront) {
  const auto g = make_graph(64, 3, 18);
  ViewPublisher pub(FailureView::all_alive(g));

  ServiceConfig one_sided;
  one_sided.router.sidedness = core::Sidedness::kOneSided;
  // 1-D ring: one-sided is legal — construction must succeed.
  EXPECT_NO_THROW(RoutingService(pub, one_sided));

  ServiceConfig cfg;
  cfg.workers = 1;
  RoutingService svc(pub, cfg);
  std::vector<Query> bad = {{static_cast<NodeId>(g.size()), 0}};
  std::vector<RouteResult> results(1);
  EXPECT_THROW((void)svc.route_all(bad, results), std::out_of_range);

  std::vector<Query> ok = {{0, 5}};
  std::vector<RouteResult> small(0);
  EXPECT_THROW((void)svc.route_all(ok, small), std::invalid_argument);
}

}  // namespace
}  // namespace p2p::service
