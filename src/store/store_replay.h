// End-to-end churn replay of the quorum store: one ChurnLog trace driven
// through a QuorumStore, interleaving client operations with epoch deltas —
// the object-availability counterpart of churn::Replay's routing replay.
//
// Between consecutive deltas, the window's worth of client ops (ops_per_ms, a
// read_fraction get/put mix over a preloaded keyspace) runs as one
// QuorumStore::run_batch against the current view; then the delta applies —
// with crash *amnesia*: a killed node forgets its replicas before the view
// flips, so a later revival returns empty and must be re-filled by
// read-repair, hinted handoff, or an anti-entropy sweep. After the trace,
// deliver_hints() flushes writes hinted during outages and up to max_sweeps
// repair passes measure the recovery window: how much replication the trace
// degraded, and how fast anti-entropy restores it.
//
// The loop stays apart from churn::Replay's tick-debt clock
// (churn/replay_engine.h): an op window is a whole batch sized by a
// fractional carry of ops_per_ms × window length, not a count of pipeline
// ticks paid down per event, so driving it from that clock would change how
// many ops each window runs.
//
// Deterministic: (store config, log, replay config) fixes every op, every
// latency draw and every routing stream bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "churn/churn_log.h"
#include "core/router.h"
#include "store/quorum_store.h"
#include "store/store_telemetry.h"

namespace p2p::store {

struct StoreReplayConfig {
  /// Preloaded keyspace size ("obj-0".."obj-<keys-1>", installed at epoch 0).
  std::size_t keys = 512;
  /// Client operations per virtual ms of trace time; finite and >= 0.
  double ops_per_ms = 2.0;
  /// Fraction of ops that are gets (the rest are puts of fresh values).
  double read_fraction = 0.7;
  std::uint64_t seed = 1;
  /// Routing behaviour of the replica sub-queries.
  core::RouterConfig router;
  /// Virtual cost charged per post-trace anti-entropy pass (the recovery
  /// window is sweeps_used * sweep_interval_ms).
  double sweep_interval_ms = 10.0;
  std::size_t max_sweeps = 16;
};

struct StoreReplayStats {
  std::size_t puts = 0;
  std::size_t gets = 0;
  std::size_t put_ok = 0;
  std::size_t get_ok = 0;
  std::size_t stale_reads = 0;
  std::size_t failovers = 0;
  std::size_t subqueries = 0;
  std::size_t hints_delivered = 0;
  std::uint64_t epochs = 0;

  /// Damage at trace end (first post-trace sweep): keys whose live primary
  /// set was missing the latest committed version...
  std::size_t degraded_keys = 0;
  /// ...of which this many had no live copy at all (unrepairable until a
  /// revival; excluded from the recovery-fraction denominator).
  std::size_t lost_keys = 0;
  /// Degraded keys restored to full live replication by the sweeps.
  std::size_t repaired_keys = 0;
  std::size_t sweeps_used = 0;
  double recovery_ms = 0.0;

  [[nodiscard]] std::size_t ops() const noexcept { return puts + gets; }
  [[nodiscard]] double put_availability() const noexcept {
    return puts == 0 ? 1.0
                     : static_cast<double>(put_ok) / static_cast<double>(puts);
  }
  [[nodiscard]] double get_availability() const noexcept {
    return gets == 0 ? 1.0
                     : static_cast<double>(get_ok) / static_cast<double>(gets);
  }
  [[nodiscard]] double availability() const noexcept {
    return ops() == 0 ? 1.0
                      : static_cast<double>(put_ok + get_ok) /
                            static_cast<double>(ops());
  }
  /// Fraction of repairable degraded keys the sweeps restored.
  [[nodiscard]] double recovered_fraction() const noexcept {
    const std::size_t repairable = degraded_keys - lost_keys;
    return repairable == 0 ? 1.0
                           : static_cast<double>(repaired_keys) /
                                 static_cast<double>(repairable);
  }
};

/// Replays `log` through `store`. Preconditions: the log is over the store's
/// graph, and the store is freshly constructed (the preload installs the
/// keyspace at epoch 0).
StoreReplayStats replay_store(QuorumStore& store, const churn::ChurnLog& log,
                              const StoreReplayConfig& cfg,
                              StoreTelemetry telem = {});

}  // namespace p2p::store
