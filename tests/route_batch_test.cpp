// Pins what the batch scheduler promises beyond the routing contract
// (differential_test checks route_batch and mid-batch churn against the
// reference walk):
//  * the tick loop performs no heap allocations after pipeline setup;
//  * advance(k) in chunks, with the view changed between chunks, equals
//    tick() with the same changes at the same tick indices, for every
//    select kernel variant, vectorized and scalar (a walk picks its kernel
//    once per advance);
//  * the same ring over SecureRouteSessions (SecureBatchPipeline) is
//    bit-identical to per-query SecureRouter::route under attack and churn.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/churn_log.h"
#include "core/router.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "failure/reputation.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "telemetry/flight_recorder.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Replacing operator new in this binary lets the
// no-allocation test observe the batch tick loop directly; counting is cheap
// enough not to disturb the other tests.

namespace {
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace p2p::core {
namespace {

using failure::FailureView;
using graph::BuildSpec;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph test_graph(std::uint64_t n, std::size_t links, std::uint64_t seed,
                        graph::EdgeLayout layout = graph::EdgeLayout::kStandard) {
  BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = true;
  spec.layout = layout;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

std::vector<Query> random_queries(const OverlayGraph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> queries(count);
  for (auto& q : queries) {
    q = {static_cast<NodeId>(rng.next_below(g.size())),
         g.position(static_cast<NodeId>(rng.next_below(g.size())))};
  }
  return queries;
}

TEST(RouteBatch, TickLoopDoesNotAllocate) {
  const OverlayGraph g = test_graph(2048, 8, 101);
  util::Rng fail_rng(103);
  const auto view = FailureView::with_node_failures(g, 0.3, fail_rng);
  const auto queries = random_queries(g, 256, 107);
  for (const StuckPolicy policy :
       {StuckPolicy::kTerminate, StuckPolicy::kRandomReroute,
        StuckPolicy::kBacktrack}) {
    RouterConfig cfg;
    cfg.stuck_policy = policy;  // record_path off: the hot configuration
    const Router router(g, view, cfg);
    std::vector<RouteResult> results(queries.size());
    BatchConfig batch;
    batch.width = 16;
    BatchPipeline pipeline(router, queries, results, /*seed_base=*/109, batch);
    const std::size_t before = g_alloc_count;
    pipeline.run();
    const std::size_t after = g_alloc_count;
    EXPECT_EQ(after, before)
        << "policy " << static_cast<int>(policy)
        << ": the batch tick loop must not allocate after setup";
    EXPECT_EQ(pipeline.retired(), queries.size());
  }
}

/// Which select kernel masks the chunked-advance test drives.
enum class Masks { kIntact, kNodes, kLinks, kBoth, kTrust };

/// Which kernel family: the default dispatch (vectorized on an AVX-512
/// host), or one of two routers that always take the scalar table.
enum class Kernel { kDefault, kForceScalar, kOneSided };

/// Sixteen epochs of random kills and revivals: of nodes, of links or both.
churn::ChurnLog churn_log(const OverlayGraph& g, bool nodes, bool links,
                          std::uint64_t seed) {
  churn::ChurnLog log(g);
  util::Rng rng(seed);
  for (int e = 0; e < 16; ++e) {
    for (int c = 0; c < 40; ++c) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      if (nodes) log.shadow().node_alive(u) ? log.kill_node(u) : log.revive_node(u);
      const std::size_t degree = g.out_degree(u);
      if (links && degree != 0) {
        const std::size_t i = rng.next_below(degree);
        log.shadow().link_alive(u, i) ? log.kill_link(u, i) : log.revive_link(u, i);
      }
    }
    log.commit(e);
  }
  return log;
}

TEST(RouteBatch, AdvanceInChunksEqualsTicks) {
  for (const graph::EdgeLayout layout :
       {graph::EdgeLayout::kStandard, graph::EdgeLayout::kCompact}) {
    const OverlayGraph g = test_graph(2048, 8, 173, layout);
    const auto queries = random_queries(g, 300, 179);
    for (const Kernel kernel : {Kernel::kDefault, Kernel::kForceScalar, Kernel::kOneSided}) {
      for (const Masks masks :
           {Masks::kIntact, Masks::kNodes, Masks::kLinks, Masks::kBoth, Masks::kTrust}) {
        const bool nodes = masks == Masks::kNodes || masks == Masks::kBoth ||
                           masks == Masks::kTrust;
        const bool links = masks == Masks::kLinks || masks == Masks::kBoth;
        std::optional<churn::ChurnLog> log;
        if (nodes || links) log.emplace(churn_log(g, nodes, links, 181));
        std::optional<failure::ReputationTable> rep;
        RouterConfig cfg;
        cfg.stuck_policy = masks == Masks::kLinks ? StuckPolicy::kRandomReroute
                                                  : StuckPolicy::kBacktrack;
        cfg.force_scalar = kernel == Kernel::kForceScalar;
        if (kernel == Kernel::kOneSided) cfg.sidedness = Sidedness::kOneSided;
        if (masks == Masks::kTrust) {
          rep.emplace(g);
          util::Rng rng(191);
          for (NodeId u = 0; u < g.size(); ++u) {
            if (!rng.next_bool(0.2)) continue;
            while (rep->trusted(u)) rep->record(u, failure::Observation::kDiedAtHop);
          }
          cfg.reputation = &*rep;
        }
        FailureView view = FailureView::all_alive(g);
        const Router router(g, view, cfg);
        if (kernel != Kernel::kDefault) EXPECT_FALSE(router.simd_eligible());
        // The view in force during chunk c: some epoch of the log, the same
        // for both runs.
        const auto seek = [&](std::size_t c) {
          if (log) log->seek(view, util::splitmix64(c) % (log->size() + 1));
        };
        for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                    std::size_t{64}, SIZE_MAX}) {
          const std::string label =
              std::string(g.compact() ? "compact" : "standard") +
              " kernel=" + std::to_string(static_cast<int>(kernel)) +
              " masks=" + std::to_string(static_cast<int>(masks)) +
              " k=" + std::to_string(k);
          std::vector<RouteResult> want(queries.size());
          std::size_t want_ticks = 0;
          {
            BatchPipeline ticked(router, queries, want, 193, BatchConfig{.width = 16});
            for (bool live = true; live; ++want_ticks) {
              if (want_ticks % k == 0) seek(want_ticks / k);
              live = ticked.tick();
            }
          }
          std::vector<RouteResult> got(queries.size());
          std::size_t got_ticks = 0;
          BatchPipeline chunked(router, queries, got, 193, BatchConfig{.width = 16});
          bool live = true;
          for (std::size_t c = 0; live; ++c) {
            seek(c);
            const std::size_t ran = chunked.advance(k, live);
            ASSERT_TRUE(ran == k || !live) << label << " chunk=" << c;
            got_ticks += ran;
          }
          EXPECT_EQ(got_ticks, want_ticks) << label;
          EXPECT_EQ(chunked.retired(), queries.size()) << label;
          if (kernel != Kernel::kDefault) {
            EXPECT_EQ(chunked.simd_advances(), 0u) << label;
          } else if (router.simd_eligible()) {
            EXPECT_GT(chunked.simd_advances(), 0u) << label;
          }
          for (std::size_t q = 0; q < queries.size(); ++q) {
            ASSERT_EQ(got[q].status, want[q].status) << label << " query=" << q;
            ASSERT_EQ(got[q].hops, want[q].hops) << label << " query=" << q;
            ASSERT_EQ(got[q].backtracks, want[q].backtracks) << label << " query=" << q;
            ASSERT_EQ(got[q].reroutes, want[q].reroutes) << label << " query=" << q;
            ASSERT_EQ(got[q].completion_epoch, want[q].completion_epoch)
                << label << " query=" << q;
          }
          seek(0);
        }
      }
    }
  }
}

TEST(RouteBatch, AdvanceOnNoQueriesRunsOneTick) {
  const OverlayGraph g = test_graph(256, 4, 197);
  const auto view = FailureView::all_alive(g);
  const Router router(g, view);
  std::vector<RouteResult> results;
  BatchPipeline pipeline(router, {}, results, 1);
  bool live = true;
  EXPECT_EQ(pipeline.advance(5, live), 1u);
  EXPECT_FALSE(live);
  EXPECT_EQ(pipeline.advance(5, live), 0u);  // a drained ring stays put
  EXPECT_FALSE(pipeline.tick());
  EXPECT_EQ(pipeline.retired(), 0u);
}

void expect_identical(const SecureRouteResult& got, const SecureRouteResult& want,
                      const std::string& label) {
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
  ASSERT_EQ(got.walks.size(), want.walks.size()) << label;
  for (std::size_t w = 0; w < got.walks.size(); ++w) {
    EXPECT_EQ(got.walks[w].outcome, want.walks[w].outcome) << label;
    EXPECT_EQ(got.walks[w].hops, want.walks[w].hops) << label;
    EXPECT_EQ(got.walks[w].first_hop_rank, want.walks[w].first_hop_rank) << label;
    EXPECT_EQ(got.walks[w].last, want.walks[w].last) << label;
  }
}

TEST(RouteBatch, SecureRingBitIdenticalToSequentialSecureRoute) {
  // Reputation stays off: one table shared by every lane makes results
  // depend on the interleaving by design.
  for (const graph::EdgeLayout layout :
       {graph::EdgeLayout::kStandard, graph::EdgeLayout::kCompact}) {
    const OverlayGraph g = test_graph(1024, 8, 139, layout);
    util::Rng fail_rng(149);
    const auto view = FailureView::with_node_failures(g, 0.3, fail_rng);
    util::Rng byz_rng(151);
    const auto byz = failure::ByzantineSet::random(g, 0.1, byz_rng);
    auto queries = random_queries(g, 120, 157);
    const auto last = static_cast<NodeId>(g.size() - 1);
    for (std::size_t i = 0; i < 6; ++i) {
      queries[10 * i] = {last, g.position(static_cast<NodeId>(97 * i))};
      queries[10 * i + 5] = {static_cast<NodeId>(131 * i), g.position(last)};
    }
    for (const failure::ByzantineBehavior behavior :
         {failure::ByzantineBehavior::kDrop,
          failure::ByzantineBehavior::kMisroute}) {
      SecureRouterConfig cfg;
      cfg.paths = 3;
      cfg.max_paths = 6;  // escalation batches ride the same lanes
      cfg.behavior = behavior;
      cfg.record_walks = true;
      const SecureRouter router(g, view, byz, cfg);
      for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                      std::size_t{64}}) {
        for (const std::size_t distance :
             {std::size_t{0}, std::size_t{1}, std::size_t{4}, width - 1, width}) {
          const std::uint64_t base = 0x5ec0 + width;
          BatchConfig batch;
          batch.width = width;
          batch.prefetch_distance = distance;
          std::vector<SecureRouteResult> got(queries.size());
          SecureBatchPipeline pipeline(router, queries, got, base, batch);
          pipeline.run();
          EXPECT_EQ(pipeline.retired(), queries.size());
          for (std::size_t i = 0; i < queries.size(); ++i) {
            util::Rng sub = util::substream(base, i);
            expect_identical(
                got[i], router.route(queries[i].src, queries[i].target, sub),
                std::string(g.compact() ? "compact" : "standard") +
                    " behavior=" + std::to_string(static_cast<int>(behavior)) +
                    " width=" + std::to_string(width) +
                    " prefetch=" + std::to_string(distance) +
                    " query=" + std::to_string(i));
          }
        }
      }
    }
  }
}

TEST(RouteBatch, SecureRingRejectsHopCapture) {
  // Per-hop capture is RouteSession-only; secure walks record their
  // outcomes through SecureRouterConfig::telemetry.
  const OverlayGraph g = test_graph(256, 4, 163);
  const auto view = FailureView::all_alive(g);
  const auto byz = failure::ByzantineSet::none(g);
  const SecureRouter router(g, view, byz, SecureRouterConfig{});
  const auto queries = random_queries(g, 4, 167);
  std::vector<SecureRouteResult> results(queries.size());
  telemetry::TraceBuffer trace(8, 1);
  BatchConfig batch;
  batch.trace = &trace;
  EXPECT_THROW(SecureBatchPipeline(router, queries, results, 1, batch),
               std::invalid_argument);
}

}  // namespace
}  // namespace p2p::core
