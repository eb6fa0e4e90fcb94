#include "churn/adversarial_replay.h"

#include <algorithm>

#include "churn/trace_gen.h"
#include "failure/reputation.h"
#include "util/require.h"

namespace p2p::churn {

AdversarialReplay::AdversarialReplay(const core::SecureRouter& router,
                                     const ChurnLog& log,
                                     std::span<const failure::ByzantineDelta> waves,
                                     failure::FailureView& view,
                                     failure::ByzantineSet& byzantine,
                                     sim::EventQueue& queue,
                                     AdversarialReplayConfig config)
    : router_(&router),
      waves_(waves),
      byzantine_(&byzantine),
      config_(config),
      engine_("AdversarialReplay", router, log, view, queue, config,
              core::BatchConfig{.width = config.width},
              &AdversarialReplayMetrics::churn_deltas,
              CompletionStamps{std::vector<double>(config.queries, -1.0),
                               config.ticks_per_ms}) {
  util::require(&router.byzantine() == &byzantine,
                "AdversarialReplay: router must consult the replayed Byzantine set");
  util::require(&byzantine.graph() == &view.graph(),
                "AdversarialReplay: Byzantine set and view must share one graph");
  util::require(byzantine.epoch() == 0,
                "AdversarialReplay: Byzantine set must start at epoch 0");
  util::require(config.decay_interval_ms >= 0.0,
                "AdversarialReplay: decay_interval_ms must be >= 0");
  util::require(config.decay_interval_ms == 0.0 || router.reputation() != nullptr,
                "AdversarialReplay: decay schedule needs a reputation table");
  for (std::size_t i = 1; i < waves_.size(); ++i) {
    util::require(waves_[i - 1].when <= waves_[i].when,
                  "AdversarialReplay: Byzantine deltas must be time-ordered");
  }
  if (config.decay_interval_ms > 0.0) {
    // Both schedules are time-ordered, so the decay horizon run() loops to
    // is the later of their last deltas.
    double horizon = log.empty() ? 0.0 : log.delta(log.size() - 1).when;
    if (!waves_.empty()) horizon = std::max(horizon, waves_.back().when);
    util::require(horizon / config.decay_interval_ms <= kMaxTraceSteps,
                  "AdversarialReplay: decay_interval_ms must be at least the "
                  "replay horizon / kMaxTraceSteps");
  }
}

AdversarialReplayStats AdversarialReplay::run() {
  stats_ = AdversarialReplayStats{};
  // Scheduling order fixes the same-instant event order: crash deltas first,
  // then corruption deltas, then reputation decay (EventQueue breaks time
  // ties by schedule sequence).
  double horizon = engine_.begin();
  for (std::size_t i = 0; i < waves_.size(); ++i) {
    horizon = std::max(horizon, waves_[i].when);
    engine_.at(waves_[i].when, [this, i] {
      byzantine_->apply(waves_[i]);
      ++stats_.byzantine_deltas_applied;
      if (auto* t = config_.telemetry) t->recorder.add(t->metrics.byzantine_deltas);
    });
  }
  if (config_.decay_interval_ms > 0.0) {
    failure::ReputationTable* rep = router_->reputation();
    for (double t = config_.decay_interval_ms; t <= horizon;
         t += config_.decay_interval_ms) {
      engine_.at(t, [this, rep] {
        rep->decay_epoch();
        ++stats_.reputation_decays;
        if (auto* t = config_.telemetry) t->recorder.add(t->metrics.decays);
      });
    }
  }
  engine_.finish();
  stats_.churn_deltas_applied = engine_.deltas_applied();
  stats_.ticks = engine_.ticks();
  stats_.routed = engine_.pipeline().retired();
  stats_.final_epoch = engine_.view().epoch();
  stats_.final_byzantine_epoch = byzantine_->epoch();
  stats_.sim_end = engine_.sim_end();
  for (const auto& res : engine_.results()) {
    if (res.delivered) ++stats_.delivered;
    stats_.total_messages += res.total_messages;
    stats_.walks_launched += res.walks_launched;
    stats_.walks_died += res.walks_died;
    stats_.walks_stuck += res.walks_stuck;
    stats_.walks_ttl_expired += res.walks_ttl_expired;
    stats_.escalations += res.escalations;
  }
  return stats_;
}

}  // namespace p2p::churn
