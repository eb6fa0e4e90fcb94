// The routing contract, checked in one place: every routing entry point of
// every router shape equals the reference walk (reference_router.h) bit for
// bit, over a fixed list of seeded samples of the configuration space.
//
// A sample is a graph, a failure pattern, an optional reputation table and
// one RouterConfig:
//  * graphs: line and ring from build_overlay (n = 2 and 3 included, and a
//    2^16-node line whose compact form escapes far links), the torus from
//    build_kleinberg_overlay (sides 2, 3 and 45 included), and GraphBuilder
//    shapes by hand — duplicate links, degree past kInlineEdges, a
//    300-link hub (on the vector path like every other node), binomial
//    (sparse) positions;
//  * failures: none, dead nodes, dead links, both, or a churn::make_trace
//    log that a fixed schedule seeks forward and back between steps;
//  * reputation: none, or a ReputationTable distrusting some nodes;
//  * config: sidedness (one-sided on 1-D only), knowledge, stuck policy,
//    backtrack_window in {1, 5, SIZE_MAX}, max_reroutes in {0, 1, 3}, ttl
//    in {auto, 1, small}, and SIZE_MAX where the walk provably ends soon;
//  * batches: width in {0, 1, 3, 32, SIZE_MAX} and prefetch distance in
//    {0, 1, 4, SIZE_MAX}.
// Four routers serve each sample — {standard, compact twin} × {default
// dispatch, force_scalar} — and each must match the reference, which reads
// candidates() on the standard graph, in select_candidate at every rank,
// route(), RouteSession stepped hop by hop (the churn schedule applied
// between steps), route_batch, and a width-1 BatchPipeline fed the same
// schedule between ticks. Under churn, wider pipelines must agree across
// the four routers and on a rerun. Each compact twin's header escape counts
// are checked first; in Debug builds every vector load the kernels issue
// asserts that it stays inside OverlayGraph::select_extent, and every
// gather that its active lanes' indices stay inside the bitset or sideband.
// Pipelines on a vectorizing router run the AVX-512 walk, whose kernel is
// inlined (WalkPipeline::advance); the test prints how many did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "failure/reputation.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "reference_router.h"
#include "util/rng.h"

namespace p2p::core {
namespace {

using failure::FailureView;
using graph::GraphBuilder;
using graph::NodeId;
using graph::OverlayGraph;
using metric::Space;

/// Samples in the budget; sample i is drawn from seed kSeedBase + i.
constexpr std::size_t kSamples = 160;
constexpr std::uint64_t kSeedBase = 0xd1ff0000;
constexpr std::size_t kQueries = 24;
constexpr std::size_t kProbes = 12;

enum class Shape { kRing, kLine, kTorus, kDuplicates, kWide, kHub, kSparse, kEscapes };
constexpr Shape kShapes[] = {Shape::kRing,       Shape::kLine, Shape::kTorus,
                             Shape::kDuplicates, Shape::kWide, Shape::kHub,
                             Shape::kSparse,     Shape::kEscapes};
constexpr const char* kShapeNames[] = {"ring", "line",  "torus",  "duplicates",
                                       "wide", "hub",   "sparse", "escapes"};

enum class Failures { kNone, kNodes, kLinks, kBoth, kChurn };
constexpr const char* kFailureNames[] = {"none", "nodes", "links", "both", "churn"};

template <class T, std::size_t N>
T pick_from(util::Rng& rng, const T (&values)[N]) {
  return values[rng.next_below(N)];
}

Space one_dimensional(util::Rng& rng, std::uint64_t n) {
  return rng.next_bool(0.5) ? Space::ring(n) : Space::line(n);
}

/// A standard graph of the sample's shape; `hub` names the high-degree node
/// of Shape::kHub (kInvalidNode otherwise).
OverlayGraph build_graph(Shape shape, util::Rng& rng, NodeId& hub) {
  hub = graph::kInvalidNode;
  switch (shape) {
    case Shape::kRing:
    case Shape::kLine: {
      graph::BuildSpec spec;
      const std::uint64_t sizes[] = {2, 3, 16 + rng.next_below(2033)};
      spec.grid_size = pick_from(rng, sizes);
      spec.topology = shape == Shape::kRing ? Space::Kind::kRing : Space::Kind::kLine;
      spec.long_links = rng.next_below(7);
      const double exponents[] = {1.0, 0.5, 2.0};
      spec.exponent = pick_from(rng, exponents);
      spec.bidirectional = rng.next_bool(0.5);
      return graph::build_overlay(spec, rng);
    }
    case Shape::kTorus: {
      const std::uint32_t sides[] = {2, 3, 45, 4 + static_cast<std::uint32_t>(rng.next_below(21))};
      return graph::build_kleinberg_overlay(pick_from(rng, sides), rng.next_below(5), 2.0,
                                            rng);
    }
    case Shape::kEscapes: {
      // Harmonic links on a 2^16-node line: about one in sixteen spans more
      // than the one-word zigzag range, so the compact twin escapes it.
      // Both directions give most nodes more than the 16 slots of one
      // vector decode group, so escapes also sit in later groups.
      graph::BuildSpec spec;
      spec.grid_size = std::uint64_t{1} << 16;
      spec.topology = Space::Kind::kLine;
      spec.long_links = 8;
      spec.bidirectional = true;
      return graph::build_overlay(spec, rng);
    }
    case Shape::kDuplicates: {
      // Long links that repeat a short link, and long links listed twice.
      GraphBuilder b(one_dimensional(rng, 16 + rng.next_below(113)));
      b.wire_short_links();
      const std::uint64_t n = b.size();
      for (NodeId u = 0; u < n; ++u) {
        b.add_long_link(u, static_cast<NodeId>((u + 1) % n));
        const auto v = static_cast<NodeId>(rng.next_below(n));
        b.add_long_link(u, v);
        b.add_long_link(u, v);
      }
      return b.freeze();
    }
    case Shape::kWide: {
      // Every node past the standard header's inline prefix (self-links too).
      GraphBuilder b(one_dimensional(rng, 64 + rng.next_below(449)));
      b.wire_short_links();
      const std::uint64_t n = b.size();
      for (NodeId u = 0; u < n; ++u) {
        const std::size_t links =
            OverlayGraph::kInlineEdges - 1 + rng.next_below(10);
        for (std::size_t k = 0; k < links; ++k) {
          b.add_long_link(u, static_cast<NodeId>(rng.next_below(n)));
        }
      }
      return b.freeze();
    }
    case Shape::kHub: {
      // One 300-link node, the rest sparsely linked. The vector kernels
      // decode and scan it sixteen links at a time like any other node.
      GraphBuilder b(one_dimensional(rng, 512 + rng.next_below(1537)));
      b.wire_short_links();
      const std::uint64_t n = b.size();
      hub = static_cast<NodeId>(rng.next_below(n));
      for (NodeId u = 0; u < n; ++u) {
        const std::size_t links = u == hub ? 300 : rng.next_below(4);
        for (std::size_t k = 0; k < links; ++k) {
          b.add_long_link(u, static_cast<NodeId>(rng.next_below(n)));
        }
      }
      return b.freeze();
    }
    case Shape::kSparse: {
      // Binomial presence (§4.3.4.1): ids are not positions.
      const auto grid = static_cast<metric::Point>(64 + rng.next_below(4033));
      const double presence = 0.2 + 0.6 * rng.next_double();
      std::vector<metric::Point> positions;
      for (metric::Point p = 0; p < grid; ++p) {
        if (rng.next_bool(presence)) positions.push_back(p);
      }
      if (positions.size() < 2) positions = {0, grid - 1};
      GraphBuilder b(one_dimensional(rng, static_cast<std::uint64_t>(grid)), positions);
      b.wire_short_links();
      const std::uint64_t n = b.size();
      for (NodeId u = 0; u < n; ++u) {
        const std::size_t links = rng.next_below(6);
        for (std::size_t k = 0; k < links; ++k) {
          b.add_long_link(u, static_cast<NodeId>(rng.next_below(n)));
        }
      }
      return b.freeze();
    }
  }
  return GraphBuilder(Space::ring(2)).freeze();
}

/// The same adjacency frozen in `layout`: short links, then long links
/// (reverses included), node by node.
OverlayGraph twin(const OverlayGraph& g, graph::EdgeLayout layout) {
  std::vector<metric::Point> positions;
  if (!g.dense()) {
    for (NodeId u = 0; u < g.size(); ++u) positions.push_back(g.position(u));
  }
  GraphBuilder b = g.dense() ? GraphBuilder(g.space()) : GraphBuilder(g.space(), positions);
  for (NodeId u = 0; u < g.size(); ++u) {
    const auto links = g.neighbors(u);
    for (std::size_t i = 0; i < g.short_degree(u); ++i) b.add_short_link(u, links[i]);
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.long_neighbors(u)) b.add_long_link(u, v);
  }
  return b.freeze(layout);
}

/// A sample's graph in both layouts, and the hub of Shape::kHub
/// (kInvalidNode otherwise).
struct Graphs {
  OverlayGraph standard;
  OverlayGraph compact;
  NodeId hub = graph::kInvalidNode;
};

Graphs make_graphs(Shape shape, util::Rng& rng) {
  NodeId hub = graph::kInvalidNode;
  OverlayGraph standard = build_graph(shape, rng, hub);
  OverlayGraph compact = twin(standard, graph::EdgeLayout::kCompact);
  return {std::move(standard), std::move(compact), hub};
}

/// Every compact header's escape count, which sizes the load extent the
/// vector kernels stay inside, is the node's escaped-slot count.
void expect_escape_counts(const OverlayGraph& compact) {
  for (NodeId u = 0; u < compact.size(); ++u) {
    const OverlayGraph::CompactHeader& h = compact.cheader(u);
    ASSERT_EQ(h.escapes, std::min<std::size_t>(
                             graph::detail::count_escapes(compact.enc_stream(h), h.degree),
                             OverlayGraph::kEscapesSaturated))
        << "u=" << u;
  }
}

/// A failure view over `g` per the sample's pattern: drawn from `seed` so
/// the standard graph and its twin get the same dead set.
FailureView make_view(const OverlayGraph& g, Failures failures, std::uint64_t seed) {
  util::Rng rng(seed);
  const double p = 0.1 + 0.5 * rng.next_double();
  switch (failures) {
    case Failures::kNodes:
      return FailureView::with_node_failures(g, p, rng);
    case Failures::kLinks:
      return FailureView::with_link_failures(g, 1.0 - p, rng);
    case Failures::kBoth: {
      auto view = FailureView::with_link_failures(g, 1.0 - p, rng);
      for (NodeId u = 0; u < g.size(); ++u) {
        if (rng.next_bool(p / 2)) view.kill_node(u);
      }
      return view;
    }
    case Failures::kNone:
    case Failures::kChurn:
      break;
  }
  return FailureView::all_alive(g);
}

/// Sixteen committed epochs of one churn scenario over `g`.
churn::ChurnLog make_log(const OverlayGraph& g, std::uint64_t seed) {
  util::Rng rng(seed);
  if (g.size() < 3) {  // make_trace keeps two nodes alive, so it needs three
    churn::ChurnLog log(g);
    for (int e = 0; e < 16; ++e) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      log.shadow().node_alive(u) ? log.kill_node(u) : log.revive_node(u);
      log.commit(e);
    }
    return log;
  }
  const auto scenario = churn::kAllScenarios[rng.next_below(churn::kAllScenarios.size())];
  churn::TraceSpec spec = churn::default_spec(scenario, 16.0, g.size());
  spec.batch_interval = 1.0;
  spec.kill_rate = 0.02 * static_cast<double>(g.size());
  spec.revive_rate = spec.kill_rate;
  spec.wave_size = 1 + g.size() / 16;
  spec.wave_period = 4.0;
  spec.flap_fraction = 0.1;
  return churn::make_trace(g, spec, rng);
}

/// Distrusts a random fifth of the nodes, the same ones for every seed user.
void distrust_some(failure::ReputationTable& table, std::uint64_t seed) {
  util::Rng rng(seed);
  for (NodeId u = 0; u < table.graph().size(); ++u) {
    if (!rng.next_bool(0.2)) continue;
    while (table.trusted(u)) table.record(u, failure::Observation::kDiedAtHop);
  }
}

/// One sample of the configuration space, drawn from its seed.
struct Sample {
  std::uint64_t seed = 0;
  Shape shape = Shape::kRing;
  Failures failures = Failures::kNone;
  bool distrust = false;
  RouterConfig cfg;
  std::vector<BatchConfig> batches;
  std::string label;
};

Sample draw_sample(std::size_t i, const OverlayGraph& g, util::Rng& rng) {
  Sample s;
  s.seed = kSeedBase + i;
  s.shape = kShapes[i % std::size(kShapes)];
  s.failures = static_cast<Failures>(i / std::size(kShapes) % 5);
  s.distrust = rng.next_bool(0.3);
  RouterConfig& cfg = s.cfg;
  cfg.record_path = true;
  if (g.space().one_dimensional() && rng.next_bool(0.25)) {
    cfg.sidedness = Sidedness::kOneSided;
  }
  cfg.knowledge = rng.next_bool(0.5) ? Knowledge::kLiveness : Knowledge::kStale;
  const StuckPolicy policies[] = {StuckPolicy::kTerminate, StuckPolicy::kRandomReroute,
                                  StuckPolicy::kBacktrack};
  cfg.stuck_policy = pick_from(rng, policies);
  const std::size_t windows[] = {1, 5, SIZE_MAX};
  cfg.backtrack_window = pick_from(rng, windows);
  const std::size_t reroutes[] = {0, 1, 3};
  cfg.max_reroutes = pick_from(rng, reroutes);
  // Terminate and reroute walks end within (2 · max_reroutes + 1) · n hops,
  // each leg strictly closer to its goal. Backtracking walks visit each
  // trail (a chain strictly closer to the target) once, in lexicographic
  // order of its ranks, so they end too, but only small graphs bound that
  // count tightly.
  const bool ends_soon = cfg.stuck_policy != StuckPolicy::kBacktrack || g.size() <= 16;
  const std::size_t ttls[] = {0, 0, 1, 2 + rng.next_below(11), ends_soon ? SIZE_MAX : 0};
  cfg.ttl = pick_from(rng, ttls);
  const std::size_t widths[] = {0, 1, 3, 32, SIZE_MAX};
  const std::size_t distances[] = {0, 1, 4, SIZE_MAX};
  for (int k = 0; k < 2; ++k) {
    s.batches.push_back(
        BatchConfig{.width = pick_from(rng, widths), .prefetch_distance = pick_from(rng, distances)});
  }
  const auto size_text = [](std::size_t v) {
    return v == SIZE_MAX ? std::string("max") : std::to_string(v);
  };
  s.label = "seed=" + std::to_string(s.seed) +
            " shape=" + kShapeNames[static_cast<int>(s.shape)] +
            " n=" + std::to_string(g.size()) +
            " failures=" + kFailureNames[static_cast<int>(s.failures)] +
            " distrust=" + std::to_string(s.distrust) +
            " one_sided=" + std::to_string(cfg.sidedness == Sidedness::kOneSided) +
            " stale=" + std::to_string(cfg.knowledge == Knowledge::kStale) +
            " policy=" + std::to_string(static_cast<int>(cfg.stuck_policy)) +
            " window=" + size_text(cfg.backtrack_window) +
            " reroutes=" + std::to_string(cfg.max_reroutes) +
            " ttl=" + size_text(cfg.ttl);
  return s;
}

void expect_same(const RouteResult& got, const RouteResult& want, const std::string& where) {
  ASSERT_EQ(got.status, want.status) << where;
  ASSERT_EQ(got.hops, want.hops) << where;
  ASSERT_EQ(got.backtracks, want.backtracks) << where;
  ASSERT_EQ(got.reroutes, want.reroutes) << where;
  ASSERT_EQ(got.completion_epoch, want.completion_epoch) << where;
  ASSERT_EQ(got.path, want.path) << where;
}

/// Outcome tallies over the whole budget, so a run that never reached a
/// branch of the contract shows up as a failure instead of a pass.
struct Coverage {
  std::size_t delivered = 0, stuck = 0, ttl_expired = 0;
  std::size_t reroutes = 0, backtracks = 0, simd_routers = 0;
  std::size_t walks = 0, simd_walks = 0;  // default-dispatch pipeline runs
  void add(const RouteResult& r) {
    delivered += r.status == RouteResult::Status::kDelivered;
    stuck += r.status == RouteResult::Status::kStuck;
    ttl_expired += r.status == RouteResult::Status::kTtlExpired;
    reroutes += r.reroutes;
    backtracks += r.backtracks;
  }
};

/// One sample's graphs, views and routers, and the checks over them.
class SampleRun {
 public:
  SampleRun(const Graphs& graphs, std::size_t index, Coverage& coverage)
      : index_(index),
        rng_(kSeedBase + index),
        standard_(graphs.standard),
        compact_(graphs.compact),
        hub_(graphs.hub),
        coverage_(&coverage) {}

  void run() {
    sample_ = draw_sample(index_, standard_, rng_);
    std_view_.emplace(make_view(standard_, sample_.failures, sample_.seed));
    cmp_view_.emplace(make_view(compact_, sample_.failures, sample_.seed));
    if (sample_.failures == Failures::kChurn) {
      std_log_.emplace(make_log(standard_, sample_.seed));
      cmp_log_.emplace(make_log(compact_, sample_.seed));
      ASSERT_EQ(std_log_->total_changes(), cmp_log_->total_changes()) << sample_.label;
    }
    RouterConfig std_cfg = sample_.cfg;
    RouterConfig cmp_cfg = sample_.cfg;
    if (sample_.distrust) {
      std_rep_.emplace(standard_);
      cmp_rep_.emplace(compact_);
      distrust_some(*std_rep_, sample_.seed);
      distrust_some(*cmp_rep_, sample_.seed);
      std_cfg.reputation = &*std_rep_;
      cmp_cfg.reputation = &*cmp_rep_;
    }
    RouterConfig std_scalar = std_cfg;
    RouterConfig cmp_scalar = cmp_cfg;
    std_scalar.force_scalar = cmp_scalar.force_scalar = true;
    routers_.reserve(4);
    routers_.emplace_back(standard_, *std_view_, std_cfg);
    routers_.emplace_back(standard_, *std_view_, std_scalar);
    routers_.emplace_back(compact_, *cmp_view_, cmp_cfg);
    routers_.emplace_back(compact_, *cmp_view_, cmp_scalar);
    ASSERT_FALSE(routers_[1].simd_eligible());
    ASSERT_FALSE(routers_[3].simd_eligible());
    coverage_->simd_routers += routers_[0].simd_eligible() + routers_[2].simd_eligible();

    for (std::size_t q = 0; q < kQueries; ++q) {
      const bool from_hub = hub_ != graph::kInvalidNode && q % 2 == 0;
      queries_.push_back({from_hub ? hub_ : static_cast<NodeId>(rng_.next_below(standard_.size())),
                          random_point()});
    }
    base_ = util::Rng(sample_.seed)();

    // The static checks run at one epoch of the log; the schedule then
    // seeks between steps.
    seek(std_log_ ? rng_.next_below(std_log_->size() + 1) : 0);
    check_selection();
    if (HasFatalFailure()) return;
    check_routes();
    if (HasFatalFailure()) return;
    check_schedule();
  }

 private:
  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  const Router& reference() const { return routers_[1]; }

  metric::Point random_point() {
    return static_cast<metric::Point>(rng_.next_below(standard_.space().size()));
  }

  static const char* router_name(std::size_t r) {
    constexpr const char* kNames[] = {"standard", "standard/scalar", "compact",
                                      "compact/scalar"};
    return kNames[r];
  }

  void seek(std::uint64_t epoch) {
    if (!std_log_) return;
    std_log_->seek(*std_view_, epoch);
    cmp_log_->seek(*cmp_view_, epoch);
  }

  /// The churn schedule: the epoch in force during global tick t.
  void seek_for_tick(std::size_t t) {
    if (std_log_) seek(util::splitmix64(sample_.seed ^ t) % (std_log_->size() + 1));
  }

  /// select_candidate at every rank up to one past the last candidate (all
  /// later ranks take the same exit), on all four routers, and the compact
  /// twin's candidates(), against the reference list.
  void check_selection() {
    for (std::size_t p = 0; p < kProbes; ++p) {
      const NodeId u = p == 0 && hub_ != graph::kInvalidNode
                           ? hub_
                           : static_cast<NodeId>(rng_.next_below(standard_.size()));
      const metric::Point t = random_point();
      const std::vector<NodeId> want = reference().candidates(u, t);
      const std::string where = sample_.label + " u=" + std::to_string(u) +
                                " t=" + std::to_string(t);
      ASSERT_EQ(routers_[2].candidates(u, t), want) << where;
      for (std::size_t r = 0; r < routers_.size(); ++r) {
        for (std::size_t rank = 0; rank <= want.size(); ++rank) {
          const NodeId expect = rank < want.size() ? want[rank] : graph::kInvalidNode;
          ASSERT_EQ(routers_[r].select_candidate(u, t, rank), expect)
              << where << " rank=" << rank << " router=" << router_name(r);
        }
      }
    }
  }

  /// route() and route_batch() on a static view against reference walks on
  /// the substreams route_batch assigns.
  void check_routes() {
    std::vector<RouteResult> want;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      util::Rng rng = util::substream(base_, q);
      want.push_back(reference_route(reference(), queries_[q].src, queries_[q].target, rng));
      coverage_->add(want.back());
    }
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        util::Rng rng = util::substream(base_, q);
        expect_same(routers_[r].route(queries_[q].src, queries_[q].target, rng), want[q],
                    sample_.label + " route() query=" + std::to_string(q) +
                        " router=" + router_name(r));
        if (HasFatalFailure()) return;
      }
      util::Rng empty(sample_.seed), once(sample_.seed);
      once();
      routers_[r].route_batch({}, {}, empty, sample_.batches[0]);
      ASSERT_EQ(empty(), once())  // an empty batch draws its base only
          << sample_.label << " empty batch router=" << router_name(r);
      for (const BatchConfig& batch : sample_.batches) {
        std::vector<RouteResult> got(queries_.size());
        util::Rng rng(sample_.seed);
        routers_[r].route_batch(queries_, got, rng, batch);
        for (std::size_t q = 0; q < queries_.size(); ++q) {
          expect_same(got[q], want[q],
                      sample_.label + " route_batch width=" + std::to_string(batch.width) +
                          " prefetch=" + std::to_string(batch.prefetch_distance) +
                          " query=" + std::to_string(q) + " router=" + router_name(r));
          if (HasFatalFailure()) return;
        }
      }
    }
  }

  /// Pipeline results under the churn schedule, one seek per tick.
  std::vector<RouteResult> run_pipeline(const Router& router, const BatchConfig& batch) {
    std::vector<RouteResult> results(queries_.size());
    BatchPipeline pipeline(router, queries_, results, base_, batch);
    for (std::size_t t = 0;; ++t) {
      seek_for_tick(t);
      if (!pipeline.tick()) break;
    }
    if (!router.config().force_scalar) {
      ++coverage_->walks;
      coverage_->simd_walks += pipeline.simd_advances() > 0;
    }
    return results;
  }

  /// Stepped sessions and a width-1 pipeline under the schedule against the
  /// stepped reference; wider pipelines across routers and a rerun.
  void check_schedule() {
    std::vector<std::vector<NodeId>> want_hops(queries_.size());
    std::vector<RouteResult> want(queries_.size());
    std::size_t t = 0;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      ReferenceWalk walk(reference(), queries_[q].src, queries_[q].target);
      util::Rng rng = util::substream(base_, q);
      for (;;) {
        seek_for_tick(t++);
        const auto hop = walk.step(rng);
        if (!hop) break;
        want_hops[q].push_back(*hop);
      }
      want[q] = walk.result();
    }
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      t = 0;
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        const std::string where = sample_.label + " stepped query=" + std::to_string(q) +
                                  " router=" + router_name(r);
        RouteSession session(routers_[r], queries_[q].src, queries_[q].target);
        util::Rng rng = util::substream(base_, q);
        for (std::size_t k = 0;; ++k) {
          seek_for_tick(t++);
          const auto hop = session.step(rng);
          ASSERT_EQ(hop.has_value(), k < want_hops[q].size()) << where << " hop=" << k;
          if (!hop) break;
          ASSERT_EQ(*hop, want_hops[q][k]) << where << " hop=" << k;
        }
        expect_same(session.result(), want[q], where);
        if (HasFatalFailure()) return;
      }
      const auto got = run_pipeline(routers_[r], BatchConfig{.width = 1});
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        expect_same(got[q], want[q], sample_.label + " width-1 pipeline query=" +
                                         std::to_string(q) + " router=" + router_name(r));
        if (HasFatalFailure()) return;
      }
    }
    if (!std_log_) return;
    for (const BatchConfig& batch : sample_.batches) {
      if (batch.width <= 1) continue;
      const auto first = run_pipeline(routers_[0], batch);
      for (std::size_t r = 1; r <= routers_.size(); ++r) {
        // r == size(): the first router again, for the rerun.
        const auto got = run_pipeline(routers_[r % routers_.size()], batch);
        for (std::size_t q = 0; q < queries_.size(); ++q) {
          expect_same(got[q], first[q],
                      sample_.label + " churned pipeline width=" +
                          std::to_string(batch.width) + " query=" + std::to_string(q) +
                          " router=" + router_name(r % routers_.size()));
          if (HasFatalFailure()) return;
        }
      }
    }
  }

  std::size_t index_;
  util::Rng rng_;
  const OverlayGraph& standard_;
  const OverlayGraph& compact_;
  NodeId hub_;
  Coverage* coverage_;
  Sample sample_;
  std::optional<FailureView> std_view_, cmp_view_;
  std::optional<churn::ChurnLog> std_log_, cmp_log_;
  std::optional<failure::ReputationTable> std_rep_, cmp_rep_;
  std::vector<Router> routers_;
  std::vector<Query> queries_;
  std::uint64_t base_ = 0;
};

TEST(Differential, EveryRouterMatchesTheReferenceWalk) {
  Coverage coverage;
  std::optional<Graphs> escapes;  // one line serves every escape sample
  for (std::size_t i = 0; i < kSamples; ++i) {
    const Shape shape = kShapes[i % std::size(kShapes)];
    util::Rng build_rng(util::splitmix64(kSeedBase + i));
    std::optional<Graphs> own;
    if (shape != Shape::kEscapes) {
      own.emplace(make_graphs(shape, build_rng));
    } else if (!escapes) {
      escapes.emplace(make_graphs(shape, build_rng));
      std::size_t escaped = 0;
      for (NodeId u = 0; u < escapes->compact.size(); ++u) {
        const auto& h = escapes->compact.cheader(u);
        escaped += graph::detail::count_escapes(escapes->compact.enc_stream(h), h.degree);
      }
      ASSERT_GT(escaped, escapes->compact.size() / 8);
    }
    const Graphs& graphs = shape == Shape::kEscapes ? *escapes : *own;
    expect_escape_counts(graphs.compact);
    if (::testing::Test::HasFatalFailure()) return;
    SampleRun run(graphs, i, coverage);
    run.run();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every outcome and recovery branch was reached, and on an AVX-512 host
  // the vector kernels served the default-dispatch routers.
  EXPECT_GT(coverage.delivered, 0u);
  EXPECT_GT(coverage.stuck, 0u);
  EXPECT_GT(coverage.ttl_expired, 0u);
  EXPECT_GT(coverage.reroutes, 0u);
  EXPECT_GT(coverage.backtracks, 0u);
  if (simd_decode_supported()) {
    EXPECT_GT(coverage.simd_routers, 0u);
    EXPECT_GT(coverage.simd_walks, 0u);
  }
  std::printf("differential: AVX-512 kernels %s (%zu of %zu default-dispatch routers "
              "vectorized)\n",
              coverage.simd_routers > 0 ? "ran" : "did not run; SIMD == scalar held trivially",
              coverage.simd_routers, 2 * kSamples);
  std::printf("differential: AVX-512 walks %s (%zu of %zu default-dispatch pipelines)\n",
              coverage.simd_walks > 0 ? "ran" : "did not run", coverage.simd_walks,
              coverage.walks);
}

}  // namespace
}  // namespace p2p::core
