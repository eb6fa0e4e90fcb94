// Composed adversarial replay: crash churn AND Byzantine corruption driving
// redundant routing through one discrete-event trace.
//
// churn::Replay (replay.h) plays a ChurnLog against a plain Router: crash
// failures only. This driver composes the full threat model of ROADMAP
// item 2 on top of core::SecureRouter:
//
//  * crash churn   — ChurnLog deltas seek the shared FailureView on
//    Replay's workload, delta schedule and tick-debt clock
//    (churn/replay_engine.h), here driving a SecureBatchPipeline;
//  * Byzantine churn — a ByzantineDelta schedule (churn::make_byzantine_waves
//    aims corrupt/heal waves at in-degree hubs) advances the shared
//    ByzantineSet's epoch cursor on the same sim::EventQueue, so a node can
//    crash, revive, turn coat and heal within one trace;
//  * reputation    — when the SecureRouter carries a ReputationTable, decay
//    epochs fire on the queue at a fixed virtual-time cadence, giving healed
//    hubs a recovery path while the replay is still running.
//
// Deltas of either kind land *between* transmissions, and every in-flight
// walk sees them on its next hop (one standing on a freshly killed node dies
// where it stands).
//
// Determinism: workload and per-query streams derive from the seed via
// util::substream; the tick/event interleave is a pure function of the two
// delta schedules' timestamps (same-instant events fire in scheduling order:
// crash, then corruption, then decay). A (graph, log, waves, config) tuple
// reproduces bit-for-bit. Each retired SecureRouteResult carries
// completion_epoch AND byzantine_epoch, and the driver timestamps every
// retirement (completion_times()), so delivery can be bucketed against both
// adversarial timelines — the recovery-time measurements in
// bench/adversarial_replay.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "churn/churn_log.h"
#include "churn/replay_engine.h"
#include "core/secure_router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"

namespace p2p::churn {

/// Adversarial-driver throughput handles: one counter per event class plus
/// pipeline ticks. Per-walk and per-query outcomes are NOT recorded here —
/// they flow through SecureRouterConfig::telemetry (core/route_telemetry.h)
/// on the router the replay drives.
struct AdversarialReplayMetrics {
  telemetry::Counter churn_deltas;
  telemetry::Counter byzantine_deltas;
  telemetry::Counter decays;
  telemetry::Counter ticks;

  static AdversarialReplayMetrics create(
      telemetry::Registry& reg, const std::string& prefix = "adversarial") {
    AdversarialReplayMetrics m;
    m.churn_deltas = reg.counter(prefix + ".churn_deltas");
    m.byzantine_deltas = reg.counter(prefix + ".byzantine_deltas");
    m.decays = reg.counter(prefix + ".decays");
    m.ticks = reg.counter(prefix + ".ticks");
    return m;
  }
};

/// What AdversarialReplayConfig::telemetry points at. The replay driver is
/// single-threaded, so one recorder (one shard) serves the whole run.
struct AdversarialReplayTelemetry {
  telemetry::Recorder recorder;
  AdversarialReplayMetrics metrics;
};

struct AdversarialReplayConfig {
  /// Pipeline ticks (message transmissions) per virtual millisecond; finite
  /// and > 0.
  double ticks_per_ms = 256.0;
  /// Total searches routed over the run (src/dst drawn live at epoch 0).
  std::size_t queries = 4096;
  /// Sessions in flight in the SecureBatchPipeline ring. The ring prefetches
  /// at core::BatchConfig's default lookahead distance; results do not
  /// depend on either.
  std::size_t width = 32;
  /// Master seed: query workload and per-query routing streams.
  std::uint64_t seed = 1;
  /// Virtual ms between ReputationTable::decay_epoch calls; 0 disables the
  /// decay schedule (and is the only valid value when the router carries no
  /// reputation table — decay without a table is a config error). At most
  /// kMaxTraceSteps decays fit the replay horizon (churn/trace_gen.h).
  double decay_interval_ms = 50.0;
  /// Optional driver telemetry: event/tick throughput counters, recorded per
  /// event and per advance batch (never per hop). Null = off. Recording
  /// never perturbs replay determinism.
  AdversarialReplayTelemetry* telemetry = nullptr;
};

struct AdversarialReplayStats {
  std::size_t churn_deltas_applied = 0;
  std::size_t byzantine_deltas_applied = 0;
  std::size_t reputation_decays = 0;
  std::size_t ticks = 0;
  std::size_t routed = 0;     ///< searches retired
  std::size_t delivered = 0;  ///< subset that reached the target
  /// Redundancy cost numerator: messages across all walks of all searches.
  std::size_t total_messages = 0;
  std::size_t walks_launched = 0;
  std::size_t walks_died = 0;
  std::size_t walks_stuck = 0;
  std::size_t walks_ttl_expired = 0;
  std::size_t escalations = 0;
  std::uint64_t final_epoch = 0;            ///< FailureView epoch after the run
  std::uint64_t final_byzantine_epoch = 0;  ///< ByzantineSet epoch after the run
  double sim_end = 0.0;  ///< virtual time of the last applied event

  [[nodiscard]] double success_rate() const noexcept {
    return routed == 0 ? 0.0
                       : static_cast<double>(delivered) / static_cast<double>(routed);
  }
  /// Messages spent per delivered query — the redundancy cost the paper's
  /// plain greedy never pays (infinite when nothing was delivered).
  [[nodiscard]] double messages_per_delivery() const noexcept {
    return delivered == 0 ? 0.0
                          : static_cast<double>(total_messages) /
                                static_cast<double>(delivered);
  }
};

/// One composed replay run binding a SecureRouter, a crash-delta log, a
/// Byzantine-delta schedule, and the (view, set) pair the router reads.
///
/// `view` must be the FailureView `router` was constructed over at epoch 0
/// of `log`; `byzantine` must be the very set the router consults, at
/// epoch 0. Both are mutated in place as deltas fire. All referenced objects
/// must outlive the replay.
class AdversarialReplay {
 public:
  AdversarialReplay(const core::SecureRouter& router, const ChurnLog& log,
                    std::span<const failure::ByzantineDelta> waves,
                    failure::FailureView& view, failure::ByzantineSet& byzantine,
                    sim::EventQueue& queue, AdversarialReplayConfig config = {});

  /// Schedules both delta streams (plus the decay cadence) on the queue,
  /// runs it to exhaustion advancing the pipeline between events, drains the
  /// remaining searches, and returns aggregate stats. Single-shot: construct
  /// a fresh AdversarialReplay (and reset the queue) for another run.
  AdversarialReplayStats run();

  /// Per-query results, valid after run(). results()[i] answers queries()[i].
  [[nodiscard]] std::span<const core::SecureRouteResult> results() const noexcept {
    return engine_.results();
  }
  [[nodiscard]] std::span<const core::Query> queries() const noexcept {
    return engine_.queries();
  }
  /// Virtual completion time (ms from run start) of each query — the
  /// windowed delivery / recovery-time axis. Valid after run().
  [[nodiscard]] std::span<const double> completion_times() const noexcept {
    return engine_.hook().ms;
  }

 private:
  /// The per-tick hook: stamps a retirement with the virtual time of the
  /// tick that retired it (at most one search retires per tick).
  struct CompletionStamps {
    std::vector<double> ms;  ///< per query; -1 until it retires
    double ticks_per_ms = 1.0;
    std::size_t retired = 0;

    void operator()(const core::SecureBatchPipeline& p, std::size_t ticks) {
      if (p.retired() == retired) return;
      retired = p.retired();
      ms[p.last_retired_query()] = static_cast<double>(ticks) / ticks_per_ms;
    }
  };

  const core::SecureRouter* router_;
  std::span<const failure::ByzantineDelta> waves_;
  failure::ByzantineSet* byzantine_;
  AdversarialReplayConfig config_;
  detail::ReplayEngine<core::SecureBatchPipeline, core::SecureRouteResult,
                       CompletionStamps>
      engine_;
  AdversarialReplayStats stats_;
};

}  // namespace p2p::churn
