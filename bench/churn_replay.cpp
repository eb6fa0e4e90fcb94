// Churn-replay headline bench: the cost of *sustained* failure dynamics.
//
// Replays a large Poisson churn trace (default 10k epoch batches at n = 1e5)
// over one built overlay two ways:
//
//  * deltas  — FailureView::apply per epoch via ChurnLog::seek, O(changed
//    bits) per event (the churn engine's incremental path);
//  * rebuild — ChurnLog::materialize per epoch: copy the baseline bitsets
//    and replay the whole delta prefix, the O(n + prefix) from-scratch
//    rebuild the pre-churn-engine experiments paid per event. Rebuild cost
//    grows with the epoch index, so it is measured on a uniform stride of
//    epochs (the mean over a uniform stride equals the mean over all epochs)
//    to keep the bench bounded.
//
// It then runs the full discrete-event replay — queries routed through
// Router::route_batch while the trace mutates the view between ticks — and
// reports end-to-end routes/sec-under-churn.
//
// Results merge into BENCH_micro.json under churn_* keys (an existing churn
// section is replaced in place and every other key kept, so the benches
// rerun in any order) and print as a table.
// Knobs: P2P_NODES, P2P_CHURN_EVENTS, P2P_MESSAGES (replay query count).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "churn/churn_log.h"
#include "churn/replay.h"
#include "churn/trace_gen.h"
#include "sim/event_queue.h"

namespace {

using namespace p2p;
using bench::seconds_since;

/// Liveness-equality check between the incremental and the rebuilt view —
/// the bench refuses to report a speedup over a baseline it does not match.
bool views_equal(const failure::FailureView& a, const failure::FailureView& b) {
  const auto& g = a.graph();
  if (a.epoch() != b.epoch() || a.alive_count() != b.alive_count()) return false;
  for (graph::NodeId u = 0; u < g.size(); ++u) {
    if (a.node_alive(u) != b.node_alive(u)) return false;
  }
  for (std::size_t slot = 0; slot < g.edge_slots(); ++slot) {
    if (a.link_alive_at(slot) != b.link_alive_at(slot)) return false;
  }
  return true;
}

struct ChurnMetrics {
  std::uint64_t nodes = 0;
  std::size_t events = 0;
  std::size_t total_changes = 0;
  double deltas_per_sec = 0;
  double rebuilds_per_sec = 0;
  double speedup = 0;
  double routes_per_sec = 0;
  double success_rate = 0;
};

/// Merges the churn section into BENCH_micro.json (bench_common.h).
void merge_json(const ChurnMetrics& m, const char* path) {
  bench::JsonSection j;
  j.add("churn_nodes", m.nodes);
  j.add("churn_events", m.events);
  j.add("churn_total_changes", m.total_changes);
  j.add("churn_deltas_per_sec", m.deltas_per_sec, 1);
  j.add("churn_rebuilds_per_sec", m.rebuilds_per_sec, 1);
  j.add("churn_delta_speedup_vs_rebuild", m.speedup, 1);
  j.add("churn_routes_per_sec", m.routes_per_sec, 1);
  j.add("churn_replay_success_rate", m.success_rate, 4);
  bench::merge_json_section(path, "churn_replay", "churn_", j);
}

}  // namespace

int main() {
  ChurnMetrics m;
  m.nodes = util::env_u64("P2P_NODES", 100000);
  m.events = static_cast<std::size_t>(util::env_u64("P2P_CHURN_EVENTS", 10000));
  const auto messages =
      static_cast<std::size_t>(util::env_u64("P2P_MESSAGES", 1 << 18));

  util::ThreadPool pool = bench::pool_from_env();
  util::Rng rng(42);
  graph::BuildSpec spec = bench::power_law_spec(m.nodes, bench::lg_links(m.nodes));
  const auto t_build = std::chrono::steady_clock::now();
  const auto g = graph::build_overlay(spec, rng, pool);
  std::printf("churn_replay: n=%llu built in %.2fs (%zu threads)\n",
              static_cast<unsigned long long>(m.nodes), seconds_since(t_build),
              pool.thread_count());

  // The trace: one Poisson kill/revive batch per virtual ms, sized so the
  // requested number of epoch batches lands in `duration` ms.
  churn::TraceSpec trace_spec;
  trace_spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  trace_spec.duration = static_cast<double>(m.events);
  trace_spec.batch_interval = 1.0;
  trace_spec.kill_rate = 8.0;
  trace_spec.revive_rate = 8.0;
  util::Rng trace_rng(7);
  const auto t_trace = std::chrono::steady_clock::now();
  const churn::ChurnLog log = churn::make_trace(g, trace_spec, trace_rng);
  m.events = log.size();
  m.total_changes = log.total_changes();
  std::printf("churn_replay: trace of %zu epoch batches (%zu bit flips) in %.2fs\n",
              m.events, m.total_changes, seconds_since(t_trace));

  // Incremental: apply every delta in sequence — the O(changed bits) path.
  failure::FailureView delta_view = log.baseline();
  const auto t_delta = std::chrono::steady_clock::now();
  log.seek(delta_view, log.size());
  const double delta_seconds = seconds_since(t_delta);
  m.deltas_per_sec = static_cast<double>(m.events) / delta_seconds;

  // From-scratch: materialize on a uniform stride of epochs and average.
  const std::size_t stride = m.events > 200 ? m.events / 200 : 1;
  std::size_t rebuilds = 0;
  const auto t_rebuild = std::chrono::steady_clock::now();
  for (std::size_t e = stride; e <= m.events; e += stride) {
    const auto rebuilt = log.materialize(e);
    ++rebuilds;
    static_cast<void>(rebuilt);
  }
  const double rebuild_seconds = seconds_since(t_rebuild);
  if (!views_equal(log.materialize(m.events), delta_view)) {
    std::fprintf(stderr,
                 "churn_replay: delta view diverged from the final rebuild\n");
    return 1;
  }
  m.rebuilds_per_sec = static_cast<double>(rebuilds) / rebuild_seconds;
  m.speedup = m.deltas_per_sec / m.rebuilds_per_sec;

  // Round trip back to epoch 0 (revert path) must recover the baseline.
  log.seek(delta_view, 0);
  if (!views_equal(delta_view, log.baseline())) {
    std::fprintf(stderr, "churn_replay: revert_to(0) did not recover the baseline\n");
    return 1;
  }

  // End-to-end discrete-event replay: route `messages` searches while the
  // trace mutates the view between pipeline ticks.
  failure::FailureView view = log.baseline();
  const core::Router router(g, view);
  sim::EventQueue queue;
  churn::ReplayConfig replay_cfg;
  replay_cfg.queries = messages;
  replay_cfg.seed = 11;
  replay_cfg.batch = bench::batch_config_from_env();
  // Spread the workload across the whole trace: tick budget ~= expected
  // transmissions (mean hops ~tens at n = 1e5) over the trace duration.
  replay_cfg.ticks_per_ms =
      static_cast<double>(messages) * 40.0 / trace_spec.duration;
  churn::Replay replay(router, log, view, queue, replay_cfg);
  const auto t_replay = std::chrono::steady_clock::now();
  const auto stats = replay.run();
  const double replay_seconds = seconds_since(t_replay);
  m.routes_per_sec = static_cast<double>(stats.routed) / replay_seconds;
  m.success_rate = stats.success_rate();

  std::printf(
      "churn_replay: deltas %.3g/s, rebuilds %.3g/s -> %.0fx speedup\n"
      "churn_replay: replay %zu routes (%.1f%% delivered, mean %.1f hops, "
      "%zu deltas, final epoch %llu) in %.2fs -> %.3g routes/s under churn\n",
      m.deltas_per_sec, m.rebuilds_per_sec, m.speedup, stats.routed,
      100.0 * m.success_rate, stats.mean_hops_delivered, stats.deltas_applied,
      static_cast<unsigned long long>(stats.final_epoch), replay_seconds,
      m.routes_per_sec);

  merge_json(m, "BENCH_micro.json");
  if (m.speedup < 10.0) {
    std::fprintf(stderr,
                 "churn_replay: speedup %.1fx below the 10x acceptance floor\n",
                 m.speedup);
    return 1;
  }
  return 0;
}
