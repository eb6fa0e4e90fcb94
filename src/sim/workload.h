// Workload generators: random search pairs, Poisson arrivals, churn traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "failure/failure_model.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/rng.h"

namespace p2p::sim {

/// Uniformly random pair of distinct live nodes.
/// Precondition: view.alive_count() >= 2.
[[nodiscard]] std::pair<graph::NodeId, graph::NodeId> random_live_pair(
    const failure::FailureView& view, util::Rng& rng);

/// Exponential inter-arrival times with the given rate (events per ms).
struct PoissonProcess {
  double rate = 1.0;

  /// Time until the next event. Precondition: rate > 0.
  [[nodiscard]] double next_gap(util::Rng& rng) const;
};

/// One scheduled churn action.
struct ChurnEvent {
  double when = 0.0;
  enum class Kind { kJoin, kLeave, kCrash } kind = Kind::kCrash;
  metric::Point position = 0;
};

/// Generates a randomized churn trace over a grid: joins arrive at vacant
/// positions, leaves/crashes hit occupied ones, with the given rates (events
/// per ms) over [0, duration]; rates and duration must be finite and >= 0.
/// Positions are flattened grid points, so any metric::Space (line, ring,
/// torus) works — occupancy is metric-blind.
///
/// `initial_members` seeds the occupancy model so the trace stays
/// consistent (no leave of a node that never joined).
[[nodiscard]] std::vector<ChurnEvent> make_churn_trace(
    const metric::Space& space, const std::vector<metric::Point>& initial_members,
    double join_rate, double leave_rate, double crash_rate, double duration,
    util::Rng& rng);

}  // namespace p2p::sim
