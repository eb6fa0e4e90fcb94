// Resilience — the paper's §6 experiment as an interactive story, plus a
// churn replay of a failure that happens *mid-search*.
//
//   $ ./resilience_demo
//
// Part 1 sweeps node-failure fractions and compares the three recovery
// strategies side by side (a miniature Figure 6) — on the line, the ring
// AND the Kleinberg 2-D torus, all through the one Router/route_batch code
// path the metric-generic overlay provides (§7's "other metrics").
// Part 2 replays a one-delta churn log: a failure wave hits while searches
// are in flight, and the per-hop adaptive routing reacts.
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_log.h"
#include "churn/replay.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "sim/event_queue.h"
#include "sim/hop_simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace p2p;
  util::Rng rng(2002);

  // Part 1: strategy comparison under increasing damage, one topology per
  // table. Every overlay is a frozen CSR graph and every number below flows
  // through the same FailureView + Router + batch pipeline — the topology is
  // only a different metric::Space behind the graph.
  const std::uint64_t n = 8192;
  const std::size_t links = 13;
  std::vector<std::pair<std::string, graph::OverlayGraph>> topologies;
  for (const auto kind : {metric::Space::Kind::kLine, metric::Space::Kind::kRing}) {
    graph::BuildSpec spec;
    spec.grid_size = n;
    spec.long_links = links;
    spec.topology = kind;
    topologies.emplace_back(kind == metric::Space::Kind::kLine ? "line" : "ring",
                            graph::build_overlay(spec, rng));
  }
  // side 91 ≈ the same node budget; r = 2 is the dimension-matched exponent.
  topologies.emplace_back("torus", graph::build_kleinberg_overlay(91, links, 2.0, rng));

  for (const auto& [name, overlay] : topologies) {
    util::Table table({"failed_nodes", "terminate", "reroute", "backtrack"});
    for (const double p : {0.2, 0.4, 0.6, 0.8}) {
      auto view = failure::FailureView::with_node_failures(overlay, p, rng);
      std::vector<std::string> row{util::format_double(p, 1)};
      for (const auto policy :
           {core::StuckPolicy::kTerminate, core::StuckPolicy::kRandomReroute,
            core::StuckPolicy::kBacktrack}) {
        core::RouterConfig cfg;
        cfg.stuck_policy = policy;
        const core::Router router(overlay, view, cfg);
        const auto batch = sim::run_batch(router, 400, rng);
        row.push_back(util::format_double(batch.failure_fraction(), 3) + " (" +
                      util::format_double(batch.hops_success.mean(), 1) + "h)");
      }
      table.add_row(row);
    }
    table.emit(std::cout, "Failed-search fraction (mean hops of successes) on " +
                              overlay.space().to_string() + " [" + name + "]");
  }

  // Part 2: a failure wave strikes while searches are in flight (ring).
  const auto ring_entry =
      std::find_if(topologies.begin(), topologies.end(),
                   [](const auto& t) { return t.first == "ring"; });
  const graph::OverlayGraph& ring = ring_entry->second;
  std::cout << "\n-- churn replay: failure wave at t=25ms, searches in flight --\n";
  // The wave is one kill delta: at t=25 a tenth of the network dies at once.
  churn::ChurnLog log(ring);
  util::Rng wave(3);
  for (graph::NodeId node = 0; node < ring.size(); ++node) {
    if (wave.next_bool(0.1)) log.kill_node(node);
  }
  log.commit(25.0);

  failure::FailureView view = log.baseline();
  core::RouterConfig cfg;
  cfg.stuck_policy = core::StuckPolicy::kBacktrack;
  const core::Router router(ring, view, cfg);
  sim::EventQueue queue;
  churn::ReplayConfig replay_cfg;
  replay_cfg.queries = 20;
  replay_cfg.seed = 99;
  // 20 searches share the pipeline, one transmission per tick: at 2 ticks
  // per ms each search makes about one hop every 10 ms.
  replay_cfg.ticks_per_ms = 2.0;
  churn::Replay replay(router, log, view, queue, replay_cfg);
  const auto stats = replay.run();

  // completion_epoch is the view epoch a search ended in: 0 before the
  // wave, 1 after it.
  std::size_t delivered_before = 0;
  std::size_t delivered_after = 0;
  for (const auto& result : replay.results()) {
    if (!result.delivered()) continue;
    ++(result.completion_epoch == 0 ? delivered_before : delivered_after);
  }
  std::cout << stats.delivered << "/" << stats.routed
            << " searches delivered despite the wave: " << delivered_before
            << " finished before it, " << delivered_after << " after it.\n"
            << "(RouteSession re-reads node liveness at every hop, so "
               "searches adapt to failures that happen under them.)\n";
  return 0;
}
