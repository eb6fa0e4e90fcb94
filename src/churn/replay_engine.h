// Internal to src/churn: what churn::Replay and churn::AdversarialReplay
// share — the query workload, the binding checks, the churn-delta schedule
// and the tick-debt clock — as one template over the pipeline type.
//
// The clock: before an event at virtual time t fires, the pipeline ticks
// (one transmission per tick) until it has run floor((t - start) *
// ticks_per_ms) ticks, so the event lands *between* transmissions. Once the
// workload drains nothing is left to tick, and later events apply
// back-to-back. The ticks between two events run in bulk, as one
// WalkPipeline::advance: nothing mutates the view inside that stretch, so
// the pipeline picks its select kernel once per stretch, not once per hop.
// Drivers add event streams through at() and may see every tick through a
// TickHook, called as hook(pipeline, ticks_run); a hooked driver (the
// adversarial replay stamps completion times) advances one tick at a time.
// Replay's hook is NoTickHook, which takes the bulk path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "churn/churn_log.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "sim/event_queue.h"
#include "sim/workload.h"
#include "telemetry/metric_registry.h"
#include "util/require.h"
#include "util/rng.h"

namespace p2p::churn::detail {

inline void require(bool ok, const char* who, const char* what) {
  if (!ok) util::require(false, std::string(who) + ": " + what);
}

struct NoTickHook {
  template <class Pipeline>
  void operator()(const Pipeline&, std::size_t) const noexcept {}
};

template <class Pipeline, class Result, class TickHook = NoTickHook>
class ReplayEngine {
 public:
  /// `config` supplies ticks_per_ms, queries, seed and telemetry (recorded
  /// into its `ticks` and `*deltas` counters); `batch` shapes the pipeline;
  /// `who` prefixes error messages. Every referenced object must outlive
  /// the engine.
  template <class Router, class Config, class Metrics>
  ReplayEngine(const char* who, const Router& router, const ChurnLog& log,
               failure::FailureView& view, sim::EventQueue& queue,
               const Config& config, const core::BatchConfig& batch,
               telemetry::Counter Metrics::*deltas, TickHook hook = {})
      : log_(&log),
        view_(&view),
        queue_(&queue),
        ticks_per_ms_(config.ticks_per_ms),
        queries_(make_queries(view, config.queries, config.seed, who)),
        results_(queries_.size()),
        pipeline_(router, queries_, results_,
                  util::splitmix64(config.seed ^ 0xc4ce'b9fe'1a85'ec53ULL), batch),
        hook_(std::move(hook)) {
    if (config.telemetry != nullptr) {
      recorder_ = config.telemetry->recorder;
      ticks_counter_ = config.telemetry->metrics.ticks;
      deltas_counter_ = config.telemetry->metrics.*deltas;
    }
    require(&router.view() == &view, who,
            "router must be built over the replayed view");
    require(&view.graph() == &log.graph(), who,
            "view and log must share one graph");
    require(view.epoch() == 0, who,
            "view must start at epoch 0 (seek it back before reuse)");
    require(std::isfinite(ticks_per_ms_) && ticks_per_ms_ > 0.0, who,
            "ticks_per_ms must be finite and > 0");
  }

  // Queued events and the pipeline's spans point into this object.
  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Starts the clock at the queue's current time and schedules every churn
  /// delta. Returns the latest delta offset (0 for an empty log).
  double begin() {
    start_time_ = queue_->now();
    double horizon = 0.0;
    for (std::size_t e = 0; e < log_->size(); ++e) {
      horizon = std::max(horizon, log_->delta(e).when);
      at(log_->delta(e).when, [this, e] {
        log_->seek(*view_, e + 1);
        ++deltas_applied_;
        recorder_.add(deltas_counter_);
      });
    }
    return horizon;
  }

  /// Schedules `apply` `offset` ms after begin() (or now, if that has
  /// passed), once the clock has caught up to that instant. Same-instant
  /// events fire in scheduling order.
  template <class Fn>
  void at(double offset, Fn apply) {
    queue_->schedule(std::max(start_time_ + offset, queue_->now()),
                     [this, apply = std::move(apply)] {
                       tick_until(static_cast<std::size_t>(
                           (queue_->now() - start_time_) * ticks_per_ms_));
                       apply();
                       sim_end_ = queue_->now() - start_time_;
                     });
  }

  /// Runs the queue to exhaustion, then drains the in-flight searches.
  void finish() {
    queue_->run();
    tick_until(std::numeric_limits<std::size_t>::max());
  }

  const std::vector<core::Query>& queries() const noexcept { return queries_; }
  const std::vector<Result>& results() const noexcept { return results_; }
  const Pipeline& pipeline() const noexcept { return pipeline_; }
  const failure::FailureView& view() const noexcept { return *view_; }
  const TickHook& hook() const noexcept { return hook_; }
  std::size_t ticks() const noexcept { return ticks_; }
  std::size_t deltas_applied() const noexcept { return deltas_applied_; }
  /// Virtual ms from begin() to the last event that fired.
  double sim_end() const noexcept { return sim_end_; }

 private:
  static std::vector<core::Query> make_queries(const failure::FailureView& view,
                                               std::size_t count,
                                               std::uint64_t seed,
                                               const char* who) {
    require(count == 0 || view.alive_count() >= 2, who,
            "need two live nodes to generate queries");
    std::vector<core::Query> queries(count);
    util::Rng rng = util::substream(seed, 0x9e37'79b9'7f4a'7c15ULL);
    for (auto& q : queries) {
      const auto [src, dst] = sim::random_live_pair(view, rng);
      q = {src, view.graph().position(dst)};
    }
    return queries;
  }

  /// Ticks while searches are in flight, until `target` ticks have run.
  /// Without a hook that is one advance() over the whole gap: events fire
  /// only between calls, so the view holds still for all of it. A hook
  /// observes every tick, so hooked drivers advance one tick at a time.
  void tick_until(std::size_t target) {
    const std::size_t before = ticks_;
    if constexpr (std::is_same_v<TickHook, NoTickHook>) {
      if (ticks_ < target) ticks_ += pipeline_.advance(target - ticks_, live_);
    } else {
      while (live_ && ticks_ < target) {
        ticks_ += pipeline_.advance(1, live_);
        hook_(pipeline_, ticks_);
      }
    }
    if (ticks_ != before) recorder_.add(ticks_counter_, ticks_ - before);
  }

  const ChurnLog* log_;
  failure::FailureView* view_;
  sim::EventQueue* queue_;
  double ticks_per_ms_;
  telemetry::Recorder recorder_;  ///< default-constructed: records nothing
  telemetry::Counter ticks_counter_;
  telemetry::Counter deltas_counter_;
  std::vector<core::Query> queries_;
  std::vector<Result> results_;
  Pipeline pipeline_;
  [[no_unique_address]] TickHook hook_;
  double start_time_ = 0.0;
  std::size_t ticks_ = 0;  ///< the clock: ticks run since begin()
  bool live_ = true;
  std::size_t deltas_applied_ = 0;
  double sim_end_ = 0.0;
};

}  // namespace p2p::churn::detail
