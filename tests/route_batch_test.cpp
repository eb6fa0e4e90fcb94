// Pins the software-pipelined batch scheduler (satellites of ISSUE 2):
//  * route_batch results are bit-identical to per-query Router::route seeded
//    with util::substream(base, i), across stuck policies, sidedness modes,
//    stale knowledge, batch widths and batches larger than the width;
//  * mid-batch churn (FailureView mutation between BatchPipeline ticks) is
//    deterministic and, at width 1, identical to a stepped RouteSession fed
//    the same mutation schedule;
//  * the tick loop performs no heap allocations after pipeline setup;
//  * the same ring over SecureRouteSessions (SecureBatchPipeline) is
//    bit-identical to per-query SecureRouter::route under attack and churn.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/router.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
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
using metric::Space;

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

void expect_identical(const RouteResult& got, const RouteResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.hops, want.hops) << label;
  EXPECT_EQ(got.backtracks, want.backtracks) << label;
  EXPECT_EQ(got.reroutes, want.reroutes) << label;
  EXPECT_EQ(got.path, want.path) << label;
}

/// Runs `queries` through route_batch and through per-query route() with the
/// matching substreams; every field of every result must agree.
void check_batch_equivalence(const Router& router,
                             const std::vector<Query>& queries,
                             std::size_t width, const std::string& label,
                             std::size_t prefetch_distance =
                                 BatchConfig{}.prefetch_distance) {
  const std::uint64_t seed = 0xb0b0 + width;
  BatchConfig batch;
  batch.width = width;
  batch.prefetch_distance = prefetch_distance;
  std::vector<RouteResult> got(queries.size());
  util::Rng batch_rng(seed);
  router.route_batch(queries, got, batch_rng, batch);

  util::Rng base_rng(seed);
  const std::uint64_t base = base_rng();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    util::Rng sub = util::substream(base, i);
    const RouteResult want =
        router.route(queries[i].src, queries[i].target, sub);
    expect_identical(got[i], want,
                     label + " width=" + std::to_string(width) +
                         " prefetch=" + std::to_string(prefetch_distance) +
                         " query=" + std::to_string(i));
  }
}

TEST(RouteBatch, BitIdenticalToSequentialRouteAcrossConfigs) {
  // The standard graph (degree > kInlineEdges, so the lookahead prefetches a
  // spill tail) and its compact twin (the lookahead spans the slot +
  // exception stream) from the same spec and seed.
  for (const graph::EdgeLayout layout :
       {graph::EdgeLayout::kStandard, graph::EdgeLayout::kCompact}) {
    const OverlayGraph g = test_graph(1024, 8, 17, layout);
    util::Rng fail_rng(23);
    const auto intact = FailureView::all_alive(g);
    const auto failing = FailureView::with_node_failures(g, 0.35, fail_rng);
    auto queries = random_queries(g, 150, 29);
    // Walks that start at or head for the last node: the lookahead over
    // node n - 1 reads the sentinel header's stream start.
    const auto last = static_cast<NodeId>(g.size() - 1);
    for (std::size_t i = 0; i < 6; ++i) {
      queries[10 * i] = {last, g.position(static_cast<NodeId>(97 * i))};
      queries[10 * i + 5] = {static_cast<NodeId>(131 * i), g.position(last)};
    }

    const StuckPolicy policies[] = {StuckPolicy::kTerminate,
                                    StuckPolicy::kRandomReroute,
                                    StuckPolicy::kBacktrack};
    const Sidedness sides[] = {Sidedness::kTwoSided, Sidedness::kOneSided};
    for (const StuckPolicy policy : policies) {
      for (const Sidedness side : sides) {
        for (const bool failed_view : {false, true}) {
          RouterConfig cfg;
          cfg.stuck_policy = policy;
          cfg.sidedness = side;
          cfg.record_path = true;  // pin the full walk, not just the summary
          const Router router(g, failed_view ? failing : intact, cfg);
          const std::string label =
              std::string(g.compact() ? "compact" : "standard") +
              " policy=" + std::to_string(static_cast<int>(policy)) +
              " side=" + std::to_string(static_cast<int>(side)) +
              " failed=" + std::to_string(failed_view);
          for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                          std::size_t{64}}) {
            // Off, adjacent, the default, the last ring position, and a
            // distance the ring is too small for (lookahead skipped).
            for (const std::size_t distance :
                 {std::size_t{0}, std::size_t{1}, std::size_t{4}, width - 1,
                  width}) {
              check_batch_equivalence(router, queries, width, label, distance);
            }
          }
        }
      }
    }
  }
}

TEST(RouteBatch, StaleKnowledgeMatchesSequentialRoute) {
  const OverlayGraph g = test_graph(1024, 8, 31);
  util::Rng fail_rng(37);
  const auto view = FailureView::with_node_failures(g, 0.3, fail_rng);
  const auto queries = random_queries(g, 120, 41);
  for (const StuckPolicy policy :
       {StuckPolicy::kTerminate, StuckPolicy::kRandomReroute,
        StuckPolicy::kBacktrack}) {
    RouterConfig cfg;
    cfg.knowledge = Knowledge::kStale;
    cfg.stuck_policy = policy;
    cfg.record_path = true;
    const Router router(g, view, cfg);
    check_batch_equivalence(router, queries, 7,
                            "stale policy=" +
                                std::to_string(static_cast<int>(policy)));
  }
}

TEST(RouteBatch, UnboundedBacktrackWindowMatchesTtlWindow) {
  // No session pushes more trail entries than its hop budget, so a window
  // past effective_ttl() routes exactly like one equal to it; SIZE_MAX
  // ("unbounded") must neither allocate its window nor change a route.
  const OverlayGraph g = test_graph(1024, 4, 43);
  util::Rng fail_rng(47);
  const auto view = FailureView::with_node_failures(g, 0.45, fail_rng);
  const auto queries = random_queries(g, 200, 53);
  for (const std::size_t ttl : {std::size_t{0}, std::size_t{24}}) {
    RouterConfig cfg;
    cfg.stuck_policy = StuckPolicy::kBacktrack;
    cfg.record_path = true;
    cfg.ttl = ttl;
    RouterConfig bounded = cfg;
    bounded.backtrack_window = Router(g, view, cfg).effective_ttl();
    cfg.backtrack_window = SIZE_MAX;
    const Router unbounded_router(g, view, cfg);
    const Router bounded_router(g, view, bounded);
    const std::string label = "ttl=" + std::to_string(ttl);
    std::vector<RouteResult> got(queries.size());
    std::vector<RouteResult> want(queries.size());
    util::Rng rng_a(59), rng_b(59);
    unbounded_router.route_batch(queries, got, rng_a, BatchConfig{.width = 8});
    bounded_router.route_batch(queries, want, rng_b, BatchConfig{.width = 8});
    std::size_t backtracks = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_identical(got[i], want[i], label + " query " + std::to_string(i));
      backtracks += want[i].backtracks;
    }
    EXPECT_GT(backtracks, 0u) << label;
    check_batch_equivalence(unbounded_router, queries, 8, label + " unbounded");
  }
}

TEST(RouteBatch, WidthLargerThanBatchAndDegenerateShapes) {
  const OverlayGraph g = test_graph(512, 6, 43);
  const auto view = FailureView::all_alive(g);
  RouterConfig cfg;
  cfg.record_path = true;
  const Router router(g, view, cfg);
  // Fewer queries than lanes.
  check_batch_equivalence(router, random_queries(g, 5, 47), 64, "narrow");
  // width 0 clamps to 1.
  check_batch_equivalence(router, random_queries(g, 9, 53), 0, "w0");
  // Empty batch: consumes the base draw and touches nothing.
  std::vector<Query> none;
  std::vector<RouteResult> no_results;
  util::Rng rng(59);
  router.route_batch(none, no_results, rng);
}

/// Deterministic churn schedule: after global tick t, kill or revive a
/// pseudo-random node. Applied identically to independent runs.
void apply_churn(FailureView& view, std::size_t t) {
  if (t % 3 != 0) return;
  const auto n = view.graph().size();
  const auto u = static_cast<NodeId>(util::splitmix64(t) % n);
  if (t % 6 == 0) {
    view.kill_node(u);
  } else {
    view.revive_node(u);
  }
}

TEST(RouteBatch, MidBatchChurnIsDeterministic) {
  const OverlayGraph g = test_graph(512, 6, 61);
  const auto queries = random_queries(g, 80, 67);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  const auto run_once = [&]() {
    util::Rng fail_rng(71);
    auto view = FailureView::with_node_failures(g, 0.2, fail_rng);
    const Router router(g, view, cfg);
    std::vector<RouteResult> results(queries.size());
    BatchConfig batch;
    batch.width = 16;
    BatchPipeline pipeline(router, queries, results, /*seed_base=*/73, batch);
    std::size_t t = 0;
    while (pipeline.tick()) {
      apply_churn(view, t);
      ++t;
    }
    EXPECT_EQ(pipeline.retired(), queries.size());
    return results;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(first[i], second[i], "churn query " + std::to_string(i));
  }
}

TEST(RouteBatch, WidthOneChurnMatchesSteppedSession) {
  const OverlayGraph g = test_graph(512, 6, 79);
  const auto queries = random_queries(g, 40, 83);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;
  cfg.record_path = true;
  constexpr std::uint64_t kBase = 89;

  // Pipeline run at width 1: strictly sequential queries, churn after every
  // tick that leaves work pending.
  util::Rng fail_rng(97);
  auto view = FailureView::with_node_failures(g, 0.2, fail_rng);
  const Router router(g, view, cfg);
  std::vector<RouteResult> got(queries.size());
  BatchConfig batch;
  batch.width = 1;
  BatchPipeline pipeline(router, queries, got, kBase, batch);
  std::size_t t = 0;
  while (pipeline.tick()) {
    apply_churn(view, t);
    ++t;
  }

  // Reference: one RouteSession per query, stepped manually with the same
  // global tick counter driving the same churn schedule.
  util::Rng ref_fail_rng(97);
  auto ref_view = FailureView::with_node_failures(g, 0.2, ref_fail_rng);
  const Router ref_router(g, ref_view, cfg);
  std::size_t ref_t = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    RouteSession session(ref_router, queries[i].src, queries[i].target);
    util::Rng sub = util::substream(kBase, i);
    for (;;) {
      session.step(sub);
      const bool all_done = session.finished() && i + 1 == queries.size();
      if (!all_done) {
        apply_churn(ref_view, ref_t);
        ++ref_t;
      }
      if (session.finished()) break;
    }
    expect_identical(got[i], session.result(),
                     "stepped query " + std::to_string(i));
  }
  EXPECT_EQ(t, ref_t);
}

TEST(RouteBatch, SimdAndScalarSelectionAgree) {
  // On AVX-512 hosts the default Router takes the vectorized rank-0 scan;
  // RouterConfig::force_scalar pins it against the scalar table on the same
  // machine (the *_scalar CTest registration additionally covers the
  // P2P_NO_SIMD env override). On other hosts both routers are scalar and
  // the test passes trivially.
  const OverlayGraph g = test_graph(2048, 9, 113);
  const auto intact = FailureView::all_alive(g);
  util::Rng fail_rng(131);
  const auto failing = FailureView::with_node_failures(g, 0.3, fail_rng);
  const auto queries = random_queries(g, 300, 127);
  // The fast path is live both on the intact view (liveness knowledge) and
  // on a failed view under stale knowledge (no per-node checks, links
  // intact) — the §6 sweep configuration. Pin both.
  struct Case {
    const FailureView* view;
    Knowledge knowledge;
    const char* label;
  };
  const Case cases[] = {{&intact, Knowledge::kLiveness, "intact"},
                        {&failing, Knowledge::kStale, "stale-failed"}};
  for (const Case& c : cases) {
    RouterConfig cfg;
    cfg.knowledge = c.knowledge;
    cfg.stuck_policy = StuckPolicy::kBacktrack;
    cfg.record_path = true;
    const Router simd_router(g, *c.view, cfg);
    RouterConfig scalar_cfg = cfg;
    scalar_cfg.force_scalar = true;
    const Router scalar_router(g, *c.view, scalar_cfg);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      util::Rng a(i), b(i);
      const RouteResult with_simd =
          simd_router.route(queries[i].src, queries[i].target, a);
      const RouteResult without =
          scalar_router.route(queries[i].src, queries[i].target, b);
      expect_identical(with_simd, without,
                       std::string(c.label) + " query " + std::to_string(i));
    }
  }
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
