#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/require.h"

namespace p2p::sim {

std::pair<graph::NodeId, graph::NodeId> random_live_pair(
    const failure::FailureView& view, util::Rng& rng) {
  util::require(view.alive_count() >= 2, "random_live_pair: need two live nodes");
  const graph::NodeId src = view.random_alive(rng);
  graph::NodeId dst = src;
  while (dst == src) dst = view.random_alive(rng);
  return {src, dst};
}

double PoissonProcess::next_gap(util::Rng& rng) const {
  util::require(rate > 0.0, "PoissonProcess: rate must be positive");
  double u = rng.next_double();
  if (u <= 0.0) u = 1e-300;  // guard against log(0)
  return -std::log(u) / rate;
}

std::vector<ChurnEvent> make_churn_trace(const metric::Space& space,
                                         const std::vector<metric::Point>& initial_members,
                                         double join_rate, double leave_rate,
                                         double crash_rate, double duration,
                                         util::Rng& rng) {
  // An infinite rate draws zero gaps, so the clock below would never pass
  // even a finite duration.
  util::require(util::finite_non_negative(duration),
                "make_churn_trace: duration must be finite and >= 0");
  util::require(util::finite_non_negative(join_rate) &&
                    util::finite_non_negative(leave_rate) &&
                    util::finite_non_negative(crash_rate),
                "make_churn_trace: rates must be finite and >= 0");
  std::set<metric::Point> occupied(initial_members.begin(), initial_members.end());
  std::vector<ChurnEvent> trace;

  const double total_rate = join_rate + leave_rate + crash_rate;
  if (total_rate <= 0.0) return trace;
  const PoissonProcess clock{total_rate};

  const auto vacant_position = [&]() -> metric::Point {
    if (occupied.size() >= space.size()) return -1;
    for (int tries = 0; tries < 512; ++tries) {
      const auto p = static_cast<metric::Point>(rng.next_below(space.size()));
      if (!occupied.contains(p)) return p;
    }
    // Dense grid: scan for the first vacancy.
    for (std::uint64_t p = 0; p < space.size(); ++p) {
      if (!occupied.contains(static_cast<metric::Point>(p))) {
        return static_cast<metric::Point>(p);
      }
    }
    return -1;
  };
  const auto occupied_position = [&]() -> metric::Point {
    if (occupied.size() <= 2) return -1;  // keep a routable core
    auto it = occupied.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(occupied.size())));
    return *it;
  };

  double t = clock.next_gap(rng);
  while (t <= duration) {
    const double pick = rng.next_double() * total_rate;
    ChurnEvent event;
    event.when = t;
    if (pick < join_rate) {
      event.kind = ChurnEvent::Kind::kJoin;
      event.position = vacant_position();
      if (event.position >= 0) {
        occupied.insert(event.position);
        trace.push_back(event);
      }
    } else {
      event.kind = pick < join_rate + leave_rate ? ChurnEvent::Kind::kLeave
                                                 : ChurnEvent::Kind::kCrash;
      event.position = occupied_position();
      if (event.position >= 0) {
        occupied.erase(event.position);
        trace.push_back(event);
      }
    }
    t += clock.next_gap(rng);
  }
  return trace;
}

}  // namespace p2p::sim
