// Trace-driven discrete-event churn replay: millions of searches routed
// through a continuously mutating FailureView.
//
// Replay merges a ChurnLog's epoch batches with the discrete-event core
// (sim::EventQueue) and a software-pipelined search load (core::BatchPipeline)
// on the tick-debt clock of churn/replay_engine.h: every delta lands between
// two transmissions at its virtual timestamp, and in-flight searches see the
// mutation on their very next hop (sessions re-read the view every step).
//
// Determinism: the query workload and every per-query routing stream derive
// from ReplayConfig::seed via util::substream, and the tick/event interleave
// is a pure function of the log's timestamps, so a (graph, log, config)
// triple reproduces results bit-for-bit. Each retired RouteResult carries
// completion_epoch — the view epoch at which the search terminated — so
// outcomes can be bucketed against the churn timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "churn/churn_log.h"
#include "churn/replay_engine.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"

namespace p2p::churn {

/// Replay-driver throughput handles: deltas applied and pipeline ticks
/// advanced. Per-query route outcomes are NOT recorded here — they flow
/// through ReplayConfig::batch.telemetry (core/route_telemetry.h), the same
/// sink every BatchPipeline uses.
struct ReplayMetrics {
  telemetry::Counter deltas;
  telemetry::Counter ticks;

  static ReplayMetrics create(telemetry::Registry& reg,
                              const std::string& prefix = "replay") {
    ReplayMetrics m;
    m.deltas = reg.counter(prefix + ".deltas");
    m.ticks = reg.counter(prefix + ".ticks");
    return m;
  }
};

/// What ReplayConfig::telemetry points at. The replay driver is
/// single-threaded, so one recorder (one shard) serves the whole run.
struct ReplayTelemetry {
  telemetry::Recorder recorder;
  ReplayMetrics metrics;
};

struct ReplayConfig {
  /// Pipeline ticks (message transmissions) per virtual millisecond; finite
  /// and > 0.
  double ticks_per_ms = 256.0;
  /// Total searches routed over the run (src/dst drawn live at epoch 0).
  std::size_t queries = 4096;
  core::BatchConfig batch;
  /// Master seed: query workload and per-query routing streams.
  std::uint64_t seed = 1;
  /// Optional driver telemetry: delta/tick throughput counters, recorded per
  /// event and per advance batch (never per hop). Null = off. Recording
  /// never perturbs replay determinism.
  ReplayTelemetry* telemetry = nullptr;
};

struct ReplayStats {
  std::size_t deltas_applied = 0;
  std::size_t ticks = 0;
  std::size_t routed = 0;     ///< searches retired
  std::size_t delivered = 0;  ///< subset that reached the target
  double mean_hops_delivered = 0.0;
  std::uint64_t final_epoch = 0;
  double sim_end = 0.0;  ///< virtual time of the last delta

  [[nodiscard]] double success_rate() const noexcept {
    return routed == 0 ? 0.0
                       : static_cast<double>(delivered) / static_cast<double>(routed);
  }
};

/// One replay run binding a router, a log, and the view the router reads.
///
/// `view` must be the FailureView `router` was constructed over, positioned
/// at epoch 0 of `log`; Replay mutates it in place as deltas fire. The
/// router, log, view and queue must outlive the Replay.
class Replay {
 public:
  Replay(const core::Router& router, const ChurnLog& log,
         failure::FailureView& view, sim::EventQueue& queue,
         ReplayConfig config = {});

  /// Schedules every delta on the queue, runs it to exhaustion (advancing
  /// the pipeline between events), drains the remaining searches, and
  /// returns the aggregate stats. Single-shot: construct a fresh Replay (and
  /// reset the queue) for another run.
  ReplayStats run();

  /// Per-query results, valid after run(). results()[i] corresponds to
  /// queries()[i].
  [[nodiscard]] std::span<const core::RouteResult> results() const noexcept {
    return engine_.results();
  }
  [[nodiscard]] std::span<const core::Query> queries() const noexcept {
    return engine_.queries();
  }

 private:
  detail::ReplayEngine<core::BatchPipeline, core::RouteResult> engine_;
};

}  // namespace p2p::churn
