#include "churn/replay.h"

namespace p2p::churn {

Replay::Replay(const core::Router& router, const ChurnLog& log,
               failure::FailureView& view, sim::EventQueue& queue,
               ReplayConfig config)
    : engine_("Replay", router, log, view, queue, config, config.batch,
              &ReplayMetrics::deltas) {}

ReplayStats Replay::run() {
  engine_.begin();
  engine_.finish();
  ReplayStats stats;
  stats.deltas_applied = engine_.deltas_applied();
  stats.ticks = engine_.ticks();
  stats.routed = engine_.pipeline().retired();
  stats.final_epoch = engine_.view().epoch();
  stats.sim_end = engine_.sim_end();
  double hops = 0.0;
  for (const auto& res : engine_.results()) {
    if (!res.delivered()) continue;
    ++stats.delivered;
    hops += static_cast<double>(res.hops);
  }
  stats.mean_hops_delivered =
      stats.delivered == 0 ? 0.0 : hops / static_cast<double>(stats.delivered);
  return stats;
}

}  // namespace p2p::churn
