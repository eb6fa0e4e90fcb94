// Micro-benchmarks (google-benchmark): costs of the hot operations — link
// sampling, route steps, batch-pipelined routing, graph construction and
// heuristic joins.
//
// The custom main() first records the headline throughput numbers to
// BENCH_micro.json (scalar and batch routes/sec over the frozen CSR graph,
// the same workload driven through the legacy materialize-candidates-per-hop
// inner loop, and serial + pool-parallel builder links/sec) so successive
// PRs can track the perf trajectory, then hands the remaining argv to
// google-benchmark. Set P2P_SKIP_JSON=1 to go straight to the registered
// benchmarks, P2P_JSON_ONLY=1 to skip them.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "core/construction.h"
#include "core/route_telemetry.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/link_distribution.h"
#include "util/prefix_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace p2p;

void BM_PowerLawSample(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const graph::PowerLawLinkSampler sampler(metric::Space1D::ring(n), 1.0);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_target(rng, 0));
  }
}
BENCHMARK(BM_PowerLawSample)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PrefixVsAlias(benchmark::State& state) {
  std::vector<double> weights(1 << 16);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  util::Rng rng(2);
  if (state.range(0) == 0) {
    const util::PrefixSampler s(weights);
    for (auto _ : state) benchmark::DoNotOptimize(s.sample(rng));
  } else {
    const util::AliasSampler s(weights);
    for (auto _ : state) benchmark::DoNotOptimize(s.sample(rng));
  }
}
BENCHMARK(BM_PrefixVsAlias)->Arg(0)->Arg(1)->ArgNames({"alias"});

void BM_BuildIdealOverlay(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = 8;
  std::uint64_t seed = 3;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(graph::build_overlay(spec, rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildIdealOverlay)->Arg(1 << 10)->Arg(1 << 14);

void BM_RouteNoFailures(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(4);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = 12;
  const auto g = graph::build_overlay(spec, rng);
  const auto view = failure::FailureView::all_alive(g);
  const core::Router router(g, view);
  for (auto _ : state) {
    const auto src = static_cast<graph::NodeId>(rng.next_below(n));
    const auto dst = static_cast<graph::NodeId>(rng.next_below(n));
    benchmark::DoNotOptimize(router.route(src, g.position(dst), rng));
  }
}
BENCHMARK(BM_RouteNoFailures)->Arg(1 << 12)->Arg(1 << 16);

void BM_RouteBatch(benchmark::State& state) {
  const std::uint64_t n = 1 << 16;
  util::Rng rng(4);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = 16;
  const auto g = graph::build_overlay(spec, rng);
  const auto view = failure::FailureView::all_alive(g);
  const core::Router router(g, view);
  core::BatchConfig batch;
  batch.width = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kQueries = 1024;
  std::vector<core::Query> queries(kQueries);
  std::vector<core::RouteResult> results(kQueries);
  for (auto _ : state) {
    for (auto& q : queries) {
      q = {static_cast<graph::NodeId>(rng.next_below(n)),
           static_cast<metric::Point>(rng.next_below(n))};
    }
    router.route_batch(queries, results, rng, batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_RouteBatch)->Arg(1)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->ArgNames({"width"});

void BM_RouteWithBacktracking(benchmark::State& state) {
  const std::uint64_t n = 1 << 14;
  util::Rng rng(5);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = 14;
  const auto g = graph::build_overlay(spec, rng);
  const auto view = failure::FailureView::with_node_failures(g, 0.5, rng);
  core::RouterConfig cfg;
  cfg.stuck_policy = core::StuckPolicy::kBacktrack;
  const core::Router router(g, view, cfg);
  for (auto _ : state) {
    const auto src = view.random_alive(rng);
    const auto dst = view.random_alive(rng);
    benchmark::DoNotOptimize(router.route(src, g.position(dst), rng));
  }
}
BENCHMARK(BM_RouteWithBacktracking);

void BM_HeuristicJoin(benchmark::State& state) {
  const std::uint64_t n = 1 << 16;
  core::ConstructionConfig cfg;
  cfg.long_links = 8;
  core::DynamicOverlay overlay(metric::Space1D::ring(n), cfg);
  util::Rng rng(6);
  // Pre-populate half the grid so joins hit a realistic membership.
  for (metric::Point p = 0; p < static_cast<metric::Point>(n); p += 2) {
    overlay.join(p, rng);
  }
  metric::Point next = 1;
  for (auto _ : state) {
    overlay.join(next, rng);
    next += 2;
    if (next >= static_cast<metric::Point>(n)) {
      state.PauseTiming();
      util::Rng drop(7);
      while (next > 1) {
        next -= 2;
        overlay.leave(next, drop);
      }
      next = 1;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_HeuristicJoin);

// ---------------------------------------------------------------------------
// Headline JSON trajectory (BENCH_micro.json)

using bench::seconds_since;

/// Replica of the pre-refactor graph layer and router inner loop: adjacency
/// as vector-of-vectors and a candidate vector materialized, sorted and
/// deduplicated at every hop. Same semantics as route() under terminate
/// policy with nothing failed — the comparison baseline for the CSR +
/// streaming-selection hot path.
struct LegacyOverlay {
  explicit LegacyOverlay(const graph::OverlayGraph& g) : space(g.space()) {
    adjacency.resize(g.size());
    for (graph::NodeId u = 0; u < g.size(); ++u) {
      const auto neigh = g.neighbors(u);
      adjacency[u].assign(neigh.begin(), neigh.end());
    }
  }

  std::vector<graph::NodeId> candidates(graph::NodeId u, metric::Point target) const {
    const metric::Point up = static_cast<metric::Point>(u);
    const metric::Distance du = space.distance(up, target);
    const auto& neigh = adjacency[u];
    std::vector<std::pair<metric::Distance, graph::NodeId>> ranked;
    ranked.reserve(neigh.size());
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const graph::NodeId v = neigh[i];
      if (v == u) continue;
      const metric::Distance dv =
          space.distance(static_cast<metric::Point>(v), target);
      if (dv >= du) continue;
      ranked.emplace_back(dv, v);
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<graph::NodeId> result;
    result.reserve(ranked.size());
    for (const auto& [d, v] : ranked) {
      if (result.empty() || result.back() != v) result.push_back(v);
    }
    return result;
  }

  std::size_t route(graph::NodeId src, graph::NodeId dst, metric::Point goal) const {
    std::size_t hops = 0;
    graph::NodeId current = src;
    while (current != dst) {
      const auto cands = candidates(current, goal);
      if (cands.empty()) break;
      current = cands.front();
      ++hops;
    }
    return hops;
  }

  metric::Space space;
  std::vector<std::vector<graph::NodeId>> adjacency;
};

constexpr std::size_t kBatchWidths[] = {1, 8, 16, 32, 64};

/// §6 node-failure fractions the failure-aware throughput is tracked at.
constexpr double kFailFractions[] = {0.1, 0.3};

struct JsonMetrics {
  std::uint64_t nodes = 0;
  std::size_t links = 0;
  double build_seconds = 0;
  double routes_per_sec = 0;
  double hops_per_sec = 0;
  double legacy_routes_per_sec = 0;
  double links_per_sec = 0;
  double speedup = 0;
  /// route_batch throughput per width in kBatchWidths.
  double batch_routes_per_sec[std::size(kBatchWidths)] = {};
  std::size_t batch_best_width = 0;
  double batch_best_routes_per_sec = 0;
  double batch_speedup = 0;  ///< best batch width vs scalar routes_per_sec
  double parallel_links_per_sec = 0;
  double freeze_links_per_sec = 0;  ///< pool-parallel freeze packing alone
  std::size_t build_threads = 0;
  /// Frozen-representation footprint of the headline graph: the standard
  /// CSR's resident bytes/node, the compact (delta-encoded) twin built from
  /// the same seed, and compact/standard.
  double bytes_per_node_standard = 0;
  double bytes_per_node_compact = 0;
  double bytes_per_node_ratio = 0;
  /// Routing *under node failures* (§6's regime) per kFailFractions entry:
  /// scalar route(), route_batch at width 32, the same batched workload
  /// through the forced-scalar router (P2P_NO_SIMD — the pre-masked-kernel
  /// per-link branch loop), and the masked-SIMD speedup over it.
  double failed_routes_per_sec[std::size(kFailFractions)] = {};
  double failed_batch_routes_per_sec[std::size(kFailFractions)] = {};
  double failed_batch_scalar_routes_per_sec[std::size(kFailFractions)] = {};
  double failed_batch_speedup[std::size(kFailFractions)] = {};
  /// Kleinberg torus on the shared CSR hot path (side² ≈ nodes, r = 2).
  std::uint64_t torus_nodes = 0;
  double torus_routes_per_sec = 0;        ///< scalar route()
  double torus_batch_routes_per_sec = 0;  ///< route_batch at width 32
  double torus_batch_speedup = 0;
  /// Telemetry overhead: the width-32 batch workload with a wired
  /// RouteTelemetry sink vs the identical uninstrumented run (interleaved
  /// best-of-3 to cut scheduling noise). The bench self-enforces
  /// overhead <= kTelemetryOverheadBudgetPct unless P2P_TELEM_NO_GATE is set.
  double telemetry_plain_routes_per_sec = 0;
  double telemetry_batch_routes_per_sec = 0;
  double telemetry_overhead_pct = 0;
  double telemetry_hops_p50 = 0;  ///< from the registry's route.hop_hist
  double telemetry_hops_p99 = 0;
  bool telemetry_gate_failed = false;
  /// Batch lookahead: route_batch at width 32 on a 2^19-node compact ring
  /// (30 % node failures, backtracking) with the pipeline's adjacency
  /// prefetch at its default distance vs disabled (distance 0); interleaved
  /// best-of-3. Reported only, no gate.
  double lookahead_routes_per_sec = 0;
  double lookahead_off_routes_per_sec = 0;
  double lookahead_speedup = 0;
};

constexpr double kTelemetryOverheadBudgetPct = 3.0;

JsonMetrics measure_headline() {
  JsonMetrics m;
  const char* nodes_env = std::getenv("P2P_BENCH_NODES");
  m.nodes = nodes_env != nullptr ? std::strtoull(nodes_env, nullptr, 10) : 100000;
  if (m.nodes < 4) {
    std::fprintf(stderr, "micro_perf: ignoring P2P_BENCH_NODES=%s (need >= 4)\n",
                 nodes_env == nullptr ? "" : nodes_env);
    m.nodes = 100000;
  }
  std::size_t links = 1;
  while ((1ULL << (links + 1)) <= m.nodes) ++links;  // lg n links per node
  m.links = links;

  graph::BuildSpec spec;
  spec.grid_size = m.nodes;
  spec.long_links = links;
  util::Rng rng(42);

  const auto t_build = std::chrono::steady_clock::now();
  const auto g = graph::build_overlay(spec, rng);
  m.build_seconds = seconds_since(t_build);
  m.links_per_sec = static_cast<double>(g.link_count()) / m.build_seconds;

  // Footprint of both frozen forms over the same adjacency (same seed).
  m.bytes_per_node_standard =
      static_cast<double>(g.memory_bytes()) / static_cast<double>(g.size());
  {
    graph::BuildSpec compact_spec = spec;
    compact_spec.layout = graph::EdgeLayout::kCompact;
    util::Rng compact_rng(42);
    const auto cg = graph::build_overlay(compact_spec, compact_rng);
    m.bytes_per_node_compact =
        static_cast<double>(cg.memory_bytes()) / static_cast<double>(cg.size());
    m.bytes_per_node_ratio = m.bytes_per_node_compact / m.bytes_per_node_standard;
  }

  const auto view = failure::FailureView::all_alive(g);
  const core::Router router(g, view);

  const auto run = [&](auto&& one_route) {
    // Calibrated run: route until ~0.5 s has elapsed, in whole batches.
    constexpr std::size_t kBatch = 2000;
    std::size_t routes = 0;
    std::size_t hops = 0;
    util::Rng pick(7);
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0;
    do {
      for (std::size_t i = 0; i < kBatch; ++i) {
        const auto src = static_cast<graph::NodeId>(pick.next_below(m.nodes));
        const auto dst = static_cast<graph::NodeId>(pick.next_below(m.nodes));
        hops += one_route(src, dst);
      }
      routes += kBatch;
      elapsed = seconds_since(start);
    } while (elapsed < 0.5);
    return std::pair<double, double>(static_cast<double>(routes) / elapsed,
                                     static_cast<double>(hops) / elapsed);
  };

  util::Rng route_rng(11);
  const auto [rps, hps] = run([&](graph::NodeId src, graph::NodeId dst) {
    return router.route(src, g.position(dst), route_rng).hops;
  });
  m.routes_per_sec = rps;
  m.hops_per_sec = hps;

  // Software-pipelined batch routing across the width sweep: same uniform
  // src/dst workload, kBatch queries per route_batch call.
  {
    constexpr std::size_t kBatch = 2000;
    std::vector<core::Query> queries(kBatch);
    std::vector<core::RouteResult> results(kBatch);
    for (std::size_t w = 0; w < std::size(kBatchWidths); ++w) {
      core::BatchConfig batch;
      batch.width = kBatchWidths[w];
      util::Rng pick(7);
      util::Rng batch_rng(11);
      std::size_t routes = 0;
      const auto start = std::chrono::steady_clock::now();
      double elapsed = 0;
      do {
        for (auto& q : queries) {
          q = {static_cast<graph::NodeId>(pick.next_below(m.nodes)),
               g.position(static_cast<graph::NodeId>(pick.next_below(m.nodes)))};
        }
        router.route_batch(queries, results, batch_rng, batch);
        routes += kBatch;
        elapsed = seconds_since(start);
      } while (elapsed < 0.5);
      m.batch_routes_per_sec[w] = static_cast<double>(routes) / elapsed;
      if (m.batch_routes_per_sec[w] > m.batch_best_routes_per_sec) {
        m.batch_best_routes_per_sec = m.batch_routes_per_sec[w];
        m.batch_best_width = kBatchWidths[w];
      }
    }
    m.batch_speedup = m.batch_best_routes_per_sec / m.routes_per_sec;
  }

  // Pool-parallel long-link sampling (bit-identical graph to the serial
  // build above, same seed).
  {
    util::ThreadPool pool = bench::pool_from_env();
    m.build_threads = pool.thread_count();
    util::Rng build_rng(42);
    const auto t_parallel = std::chrono::steady_clock::now();
    const auto g_parallel = graph::build_overlay(spec, build_rng, pool);
    m.parallel_links_per_sec =
        static_cast<double>(g_parallel.link_count()) / seconds_since(t_parallel);

    // Pool-parallel freeze packing in isolation: reassemble the builder
    // state of the graph above, then time freeze(pool) alone.
    graph::GraphBuilder builder((metric::Space1D::ring(m.nodes)));
    builder.reserve_links(m.links + 2);
    builder.wire_short_links();
    for (graph::NodeId u = 0; u < g_parallel.size(); ++u) {
      for (const graph::NodeId v : g_parallel.long_neighbors(u)) {
        builder.add_long_link(u, v);
      }
    }
    const auto t_freeze = std::chrono::steady_clock::now();
    const auto frozen = builder.freeze(pool);
    m.freeze_links_per_sec =
        static_cast<double>(frozen.link_count()) / seconds_since(t_freeze);
  }

  // Routing under node failures — the paper's headline §6 regime. Src/dst
  // pairs are drawn live (as §6 does); throughput is measured scalar,
  // batched with the masked SIMD candidate scan, and batched through a
  // router whose vectorized dispatch is forced off (P2P_NO_SIMD at
  // construction) — the pre-masked-kernel scalar per-link liveness loop,
  // i.e. the pre-PR under-failure path the speedup is recorded against.
  for (std::size_t pi = 0; pi < std::size(kFailFractions); ++pi) {
    util::Rng fail_rng(17 + pi);
    const auto fview =
        failure::FailureView::with_node_failures(g, kFailFractions[pi], fail_rng);
    const core::Router frouter(g, fview);
    core::RouterConfig scalar_cfg;
    scalar_cfg.force_scalar = true;  // the pre-masked-kernel per-link loop
    const core::Router frouter_scalar(g, fview, scalar_cfg);

    constexpr std::size_t kBatch = 2000;
    std::vector<core::Query> queries(kBatch);
    std::vector<core::RouteResult> results(kBatch);
    const auto draw_queries = [&](util::Rng& pick) {
      for (auto& q : queries) {
        const graph::NodeId src = fview.random_alive(pick);
        const graph::NodeId dst = fview.random_alive(pick);
        q = {src, g.position(dst)};
      }
    };
    const auto run_failed = [&](auto&& route_all) {
      util::Rng pick(7);
      util::Rng batch_rng(11);
      std::size_t routes = 0;
      const auto start = std::chrono::steady_clock::now();
      double elapsed = 0;
      do {
        draw_queries(pick);
        route_all(batch_rng);
        routes += kBatch;
        elapsed = seconds_since(start);
      } while (elapsed < 0.5);
      return static_cast<double>(routes) / elapsed;
    };

    m.failed_routes_per_sec[pi] = run_failed([&](util::Rng& r) {
      for (const auto& q : queries) {
        benchmark::DoNotOptimize(frouter.route(q.src, q.target, r));
      }
    });
    core::BatchConfig batch;
    batch.width = 32;
    m.failed_batch_routes_per_sec[pi] = run_failed(
        [&](util::Rng& r) { frouter.route_batch(queries, results, r, batch); });
    m.failed_batch_scalar_routes_per_sec[pi] = run_failed([&](util::Rng& r) {
      frouter_scalar.route_batch(queries, results, r, batch);
    });
    m.failed_batch_speedup[pi] = m.failed_batch_routes_per_sec[pi] /
                                 m.failed_batch_scalar_routes_per_sec[pi];
  }

  // Telemetry overhead on the headline batch path: identical workload with
  // and without a wired per-query sink, interleaved as paired (plain,
  // instrumented) rounds. The reported overhead is the *minimum* over the
  // paired rounds — the true cost is at most what the cleanest pairing
  // shows, so clock-frequency drift or a scheduling hiccup in one round
  // cannot fail the gate; the reported throughputs are each side's best
  // round. Recording happens per retired query, so the measured delta is
  // the full instrumentation cost of the hot path.
  {
    telemetry::Registry reg(1);
    core::RouteMetrics metrics = core::RouteMetrics::create(reg);
    core::RouteTelemetry sink{reg.recorder(0), metrics};

    constexpr std::size_t kBatch = 2000;
    std::vector<core::Query> queries(kBatch);
    std::vector<core::RouteResult> results(kBatch);
    const auto run_batch = [&](core::BatchConfig batch) {
      util::Rng pick(7);
      util::Rng batch_rng(11);
      std::size_t routes = 0;
      const auto start = std::chrono::steady_clock::now();
      double elapsed = 0;
      do {
        for (auto& q : queries) {
          q = {static_cast<graph::NodeId>(pick.next_below(m.nodes)),
               g.position(static_cast<graph::NodeId>(pick.next_below(m.nodes)))};
        }
        router.route_batch(queries, results, batch_rng, batch);
        routes += kBatch;
        elapsed = seconds_since(start);
      } while (elapsed < 0.4);
      return static_cast<double>(routes) / elapsed;
    };

    core::BatchConfig plain;
    plain.width = 32;
    core::BatchConfig instrumented = plain;
    instrumented.telemetry = &sink;
    run_batch(plain);  // warmup: fault in the graph and stabilize the clock
    double min_overhead = 100.0;
    for (int round = 0; round < 3; ++round) {
      const double p = run_batch(plain);
      const double i = run_batch(instrumented);
      m.telemetry_plain_routes_per_sec =
          std::max(m.telemetry_plain_routes_per_sec, p);
      m.telemetry_batch_routes_per_sec =
          std::max(m.telemetry_batch_routes_per_sec, i);
      min_overhead = std::min(min_overhead, (p - i) / p * 100.0);
    }
    m.telemetry_overhead_pct = std::max(0.0, min_overhead);
    const telemetry::Snapshot snap = reg.snapshot();
    if (const auto* hist = snap.histogram("route.hop_hist")) {
      m.telemetry_hops_p50 = hist->p50();
      m.telemetry_hops_p99 = hist->p99();
    }
    m.telemetry_gate_failed =
        telemetry::kCompiledIn &&
        m.telemetry_overhead_pct > kTelemetryOverheadBudgetPct;
  }

  // Batch lookahead on a graph far larger than cache (the steady lookup
  // benchmark's shape): the pipeline prefetches each lane's adjacency
  // `prefetch_distance` ticks ahead of its hop, and distance 0 turns that
  // off. Interleaved rounds, each side's best, as in the telemetry row.
  {
    graph::BuildSpec ring;
    ring.grid_size = std::uint64_t{1} << 19;
    ring.long_links = 19;
    ring.bidirectional = true;
    ring.layout = graph::EdgeLayout::kCompact;
    util::Rng ring_rng(42);
    const auto cg = graph::build_overlay(ring, ring_rng);
    util::Rng fail_rng(17);
    const auto cview = failure::FailureView::with_node_failures(cg, 0.3, fail_rng);
    core::RouterConfig backtrack;
    backtrack.stuck_policy = core::StuckPolicy::kBacktrack;
    const core::Router crouter(cg, cview, backtrack);

    constexpr std::size_t kBatch = 2000;
    std::vector<core::Query> queries(kBatch);
    std::vector<core::RouteResult> results(kBatch);
    const auto run_batch = [&](const core::BatchConfig& batch) {
      util::Rng pick(7);
      util::Rng batch_rng(11);
      std::size_t routes = 0;
      const auto start = std::chrono::steady_clock::now();
      double elapsed = 0;
      do {
        for (auto& q : queries) {
          const graph::NodeId src = cview.random_alive(pick);
          q = {src, cg.position(cview.random_alive(pick))};
        }
        crouter.route_batch(queries, results, batch_rng, batch);
        routes += kBatch;
        elapsed = seconds_since(start);
      } while (elapsed < 0.4);
      return static_cast<double>(routes) / elapsed;
    };

    core::BatchConfig on;
    on.width = 32;
    core::BatchConfig off = on;
    off.prefetch_distance = 0;
    run_batch(on);  // warmup: fault in the graph and stabilize the clock
    for (int round = 0; round < 3; ++round) {
      m.lookahead_routes_per_sec = std::max(m.lookahead_routes_per_sec, run_batch(on));
      m.lookahead_off_routes_per_sec =
          std::max(m.lookahead_off_routes_per_sec, run_batch(off));
    }
    m.lookahead_speedup = m.lookahead_routes_per_sec / m.lookahead_off_routes_per_sec;
  }

  const LegacyOverlay legacy(g);
  const auto [legacy_rps, legacy_hps] = run([&](graph::NodeId src, graph::NodeId dst) {
    return legacy.route(src, dst, g.position(dst));
  });
  static_cast<void>(legacy_hps);
  m.legacy_routes_per_sec = legacy_rps;
  m.speedup = m.routes_per_sec / m.legacy_routes_per_sec;

  // Kleinberg torus on the same frozen-CSR hot path: scalar route() vs the
  // batch pipeline, side chosen so the torus has at least `nodes` nodes.
  {
    std::uint32_t side = 2;
    while (static_cast<std::uint64_t>(side) * side < m.nodes) ++side;
    util::Rng torus_rng(43);
    const auto tg = graph::build_kleinberg_overlay(side, links, 2.0, torus_rng);
    m.torus_nodes = tg.size();
    const auto tview = failure::FailureView::all_alive(tg);
    const core::Router trouter(tg, tview);

    util::Rng troute_rng(11);
    const auto scalar = [&] {
      constexpr std::size_t kBatch = 2000;
      std::size_t routes = 0;
      util::Rng pick(7);
      const auto start = std::chrono::steady_clock::now();
      double elapsed = 0;
      do {
        for (std::size_t i = 0; i < kBatch; ++i) {
          const auto src = static_cast<graph::NodeId>(pick.next_below(tg.size()));
          const auto dst = static_cast<graph::NodeId>(pick.next_below(tg.size()));
          benchmark::DoNotOptimize(
              trouter.route(src, tg.position(dst), troute_rng));
        }
        routes += kBatch;
        elapsed = seconds_since(start);
      } while (elapsed < 0.5);
      return static_cast<double>(routes) / elapsed;
    };
    m.torus_routes_per_sec = scalar();

    constexpr std::size_t kBatch = 2000;
    std::vector<core::Query> queries(kBatch);
    std::vector<core::RouteResult> results(kBatch);
    core::BatchConfig batch;
    batch.width = 32;
    util::Rng pick(7);
    util::Rng batch_rng(11);
    std::size_t routes = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0;
    do {
      for (auto& q : queries) {
        q = {static_cast<graph::NodeId>(pick.next_below(tg.size())),
             tg.position(static_cast<graph::NodeId>(pick.next_below(tg.size())))};
      }
      trouter.route_batch(queries, results, batch_rng, batch);
      routes += kBatch;
      elapsed = seconds_since(start);
    } while (elapsed < 0.5);
    m.torus_batch_routes_per_sec = static_cast<double>(routes) / elapsed;
    m.torus_batch_speedup = m.torus_batch_routes_per_sec / m.torus_routes_per_sec;
  }
  return m;
}

void write_json(const JsonMetrics& m, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_perf: cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_perf\",\n"
               "  \"nodes\": %llu,\n"
               "  \"long_links_per_node\": %zu,\n"
               "  \"build_seconds\": %.6f,\n"
               "  \"links_per_sec\": %.1f,\n"
               "  \"parallel_links_per_sec\": %.1f,\n"
               "  \"freeze_links_per_sec\": %.1f,\n"
               "  \"build_threads\": %zu,\n"
               "  \"bytes_per_node_standard\": %.2f,\n"
               "  \"bytes_per_node_compact\": %.2f,\n"
               "  \"bytes_per_node_ratio\": %.4f,\n"
               "  \"routes_per_sec\": %.1f,\n"
               "  \"hops_per_sec\": %.1f,\n"
               "  \"batch_routes_per_sec\": {",
               static_cast<unsigned long long>(m.nodes), m.links, m.build_seconds,
               m.links_per_sec, m.parallel_links_per_sec, m.freeze_links_per_sec,
               m.build_threads, m.bytes_per_node_standard, m.bytes_per_node_compact,
               m.bytes_per_node_ratio, m.routes_per_sec, m.hops_per_sec);
  for (std::size_t w = 0; w < std::size(kBatchWidths); ++w) {
    std::fprintf(f, "%s\"w%zu\": %.1f", w == 0 ? " " : ", ", kBatchWidths[w],
                 m.batch_routes_per_sec[w]);
  }
  std::fprintf(f,
               " },\n"
               "  \"batch_best_width\": %zu,\n"
               "  \"batch_best_routes_per_sec\": %.1f,\n"
               "  \"batch_speedup_vs_scalar\": %.3f,\n",
               m.batch_best_width, m.batch_best_routes_per_sec, m.batch_speedup);
  const auto fail_series = [&](const char* key, const double* values) {
    std::fprintf(f, "  \"%s\": {", key);
    for (std::size_t p = 0; p < std::size(kFailFractions); ++p) {
      std::fprintf(f, "%s\"p%.1f\": %.1f", p == 0 ? " " : ", ",
                   kFailFractions[p], values[p]);
    }
    std::fprintf(f, " },\n");
  };
  fail_series("failed_routes_per_sec", m.failed_routes_per_sec);
  fail_series("failed_batch_routes_per_sec", m.failed_batch_routes_per_sec);
  fail_series("failed_batch_scalar_routes_per_sec",
              m.failed_batch_scalar_routes_per_sec);
  fail_series("failed_batch_speedup_vs_scalar", m.failed_batch_speedup);
  std::fprintf(f,
               "  \"telemetry_plain_routes_per_sec\": %.1f,\n"
               "  \"telemetry_batch_routes_per_sec\": %.1f,\n"
               "  \"telemetry_overhead_pct\": %.3f,\n"
               "  \"telemetry_hops_p50\": %.2f,\n"
               "  \"telemetry_hops_p99\": %.2f,\n",
               m.telemetry_plain_routes_per_sec, m.telemetry_batch_routes_per_sec,
               m.telemetry_overhead_pct, m.telemetry_hops_p50,
               m.telemetry_hops_p99);
  std::fprintf(f,
               "  \"lookahead_routes_per_sec\": %.1f,\n"
               "  \"lookahead_off_routes_per_sec\": %.1f,\n"
               "  \"lookahead_speedup\": %.3f,\n",
               m.lookahead_routes_per_sec, m.lookahead_off_routes_per_sec,
               m.lookahead_speedup);
  std::fprintf(f,
               "  \"legacy_alloc_routes_per_sec\": %.1f,\n"
               "  \"speedup_vs_legacy_alloc\": %.3f,\n"
               "  \"torus_nodes\": %llu,\n"
               "  \"torus_routes_per_sec\": %.1f,\n"
               "  \"torus_batch_routes_per_sec\": %.1f,\n"
               "  \"torus_batch_speedup_vs_scalar\": %.3f\n"
               "}\n",
               m.legacy_routes_per_sec, m.speedup,
               static_cast<unsigned long long>(m.torus_nodes),
               m.torus_routes_per_sec, m.torus_batch_routes_per_sec,
               m.torus_batch_speedup);
  std::fclose(f);
  std::printf(
      "BENCH_micro.json: n=%llu links/node=%zu build=%.2fs "
      "links/s=%.3g (parallel %.3g, freeze %.3g on %zu threads) routes/s=%.3g "
      "(batch best %.3g at W=%zu, %.2fx scalar; legacy alloc %.3g, %.2fx; "
      "torus n=%llu %.3g scalar, %.3g batch, %.2fx; "
      "failed p=%.1f %.3g scalar, %.3g batch, %.2fx vs scalar-path batch)\n",
      static_cast<unsigned long long>(m.nodes), m.links, m.build_seconds,
      m.links_per_sec, m.parallel_links_per_sec, m.freeze_links_per_sec,
      m.build_threads, m.routes_per_sec, m.batch_best_routes_per_sec,
      m.batch_best_width, m.batch_speedup, m.legacy_routes_per_sec, m.speedup,
      static_cast<unsigned long long>(m.torus_nodes), m.torus_routes_per_sec,
      m.torus_batch_routes_per_sec, m.torus_batch_speedup, kFailFractions[1],
      m.failed_routes_per_sec[1], m.failed_batch_routes_per_sec[1],
      m.failed_batch_speedup[1]);
}

}  // namespace

int main(int argc, char** argv) {
  if (std::getenv("P2P_SKIP_JSON") == nullptr) {
    const JsonMetrics m = measure_headline();
    write_json(m, "BENCH_micro.json");
    std::printf("telemetry: %.3g routes/s instrumented vs %.3g plain "
                "(%.2f%% overhead, budget %.1f%%); hops p50=%.1f p99=%.1f\n",
                m.telemetry_batch_routes_per_sec,
                m.telemetry_plain_routes_per_sec, m.telemetry_overhead_pct,
                kTelemetryOverheadBudgetPct, m.telemetry_hops_p50,
                m.telemetry_hops_p99);
    std::printf("lookahead: %.3g routes/s at the default prefetch distance vs "
                "%.3g with it off (%.2fx; 2^19-node compact ring, p=0.3)\n",
                m.lookahead_routes_per_sec, m.lookahead_off_routes_per_sec,
                m.lookahead_speedup);
    if (m.telemetry_gate_failed) {
      if (std::getenv("P2P_TELEM_NO_GATE") != nullptr) {
        std::fprintf(stderr,
                     "micro_perf: telemetry overhead %.2f%% exceeds the %.1f%% "
                     "budget (P2P_TELEM_NO_GATE set; not failing)\n",
                     m.telemetry_overhead_pct, kTelemetryOverheadBudgetPct);
      } else {
        std::fprintf(stderr,
                     "micro_perf: telemetry overhead %.2f%% exceeds the %.1f%% "
                     "budget (set P2P_TELEM_NO_GATE=1 to override)\n",
                     m.telemetry_overhead_pct, kTelemetryOverheadBudgetPct);
        return 1;
      }
    }
  }
  if (std::getenv("P2P_JSON_ONLY") != nullptr) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
