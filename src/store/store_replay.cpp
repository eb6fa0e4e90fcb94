#include "store/store_replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "failure/failure_model.h"
#include "util/require.h"
#include "util/rng.h"

namespace p2p::store {

StoreReplayStats replay_store(QuorumStore& store, const churn::ChurnLog& log,
                              const StoreReplayConfig& cfg,
                              StoreTelemetry telem) {
  util::require(&log.graph() == &store.graph(),
                "replay_store: log is over a different graph");
  util::require(cfg.keys >= 1, "replay_store: keys must be >= 1");
  util::require(std::isfinite(cfg.ops_per_ms) && cfg.ops_per_ms >= 0.0,
                "replay_store: ops_per_ms must be finite and >= 0");

  const graph::OverlayGraph& g = store.graph();
  failure::FailureView view = log.baseline();
  util::Rng rng(cfg.seed);
  StoreReplayStats stats;
  stats.epochs = log.size();

  std::vector<std::string> keyspace;
  keyspace.reserve(cfg.keys);
  for (std::size_t i = 0; i < cfg.keys; ++i) {
    keyspace.push_back("obj-" + std::to_string(i));
  }
  for (const std::string& key : keyspace) {
    store.install(view, key, "v0-" + key);
  }
  telem.recorder.set(telem.metrics.keys, store.key_count());

  std::vector<Op> ops;
  std::vector<OpResult> results;
  double prev_when = 0.0;
  double carry = 0.0;
  std::uint64_t value_counter = 0;

  for (std::size_t e = 0; e < log.size(); ++e) {
    const failure::FailureDelta& delta = log.delta(e);
    carry += std::max(0.0, delta.when - prev_when) * cfg.ops_per_ms;
    prev_when = delta.when;
    const auto n_ops = static_cast<std::size_t>(carry);
    carry -= static_cast<double>(n_ops);

    if (n_ops > 0) {
      ops.clear();
      for (std::size_t j = 0; j < n_ops; ++j) {
        Op op;
        op.type = rng.next_bool(cfg.read_fraction) ? OpType::kGet : OpType::kPut;
        op.client = view.random_alive(rng);
        op.key = keyspace[rng.next_below(keyspace.size())];
        if (op.type == OpType::kPut) {
          char value[24];
          std::snprintf(value, sizeof value, "v%llu",
                        static_cast<unsigned long long>(++value_counter));
          op.value = value;
        }
        ops.push_back(std::move(op));
      }
      results.assign(ops.size(), OpResult{});
      const core::Router router(g, view, cfg.router);
      store.run_batch(router, ops, results,
                      util::splitmix64(cfg.seed ^ (e + 1)), telem);
      for (std::size_t j = 0; j < ops.size(); ++j) {
        const OpResult& res = results[j];
        if (ops[j].type == OpType::kPut) {
          ++stats.puts;
          stats.put_ok += res.ok ? 1 : 0;
        } else {
          ++stats.gets;
          stats.get_ok += res.ok ? 1 : 0;
          stats.stale_reads += res.stale ? 1 : 0;
        }
        stats.failovers += res.failovers;
        stats.subqueries += res.subqueries;
      }
    }

    // Crash amnesia precedes the view flip: the replicas die with the node.
    for (const graph::NodeId u : delta.node_kills) store.forget(u);
    view.apply(delta);
    stats.hints_delivered += store.deliver_hints(view, telem);
  }

  // Recovery: flush hints against the healed membership, then sweep until a
  // pass finds nothing repairable. The first sweep measures the damage the
  // trace left behind; recovery_ms charges one interval per pass.
  stats.hints_delivered += store.deliver_hints(view, telem);
  for (std::size_t s = 0; s < cfg.max_sweeps; ++s) {
    const SweepStats sw = store.repair_sweep(view, telem);
    ++stats.sweeps_used;
    if (s == 0) {
      stats.degraded_keys = sw.degraded + sw.lost;
      stats.lost_keys = sw.lost;
    }
    stats.repaired_keys += sw.repaired;
    if (sw.degraded == 0) {
      stats.lost_keys = sw.lost;
      break;
    }
  }
  stats.recovery_ms =
      static_cast<double>(stats.sweeps_used) * cfg.sweep_interval_ms;
  return stats;
}

}  // namespace p2p::store
