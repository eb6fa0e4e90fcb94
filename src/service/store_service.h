// Multi-threaded quorum-store frontend over epoch-published FailureView
// snapshots — the object-store sibling of service/routing_service.h: many
// workers drain one client-op stream against a shared QuorumStore while a
// single churn writer advances epochs through a ViewPublisher.
//
// Threading is service::StripeExecutor's (service/stripe_executor.h), as in
// RoutingService. Per claimed stripe a worker builds a core::Router over the
// pinned view and runs QuorumStore::run_batch with seed
// RoutingService::stripe_seed_base(seed, stripe index): placement, routed
// sub-queries, failover and read-repair all bind to that one snapshot, so a
// whole quorum operation observes a single consistent membership.
//
// Determinism: with the writer idle and distinct keys across stripes, every
// OpResult is bit-identical across any worker count
// (tests/store_service_test.cpp pins this). Concurrent same-key writes from
// different stripes are merged by max version (convergent, but which
// version wins a seq tie is scheduling-dependent — same as any
// last-writer-wins register).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/router.h"
#include "service/stripe_executor.h"
#include "service/view_publisher.h"
#include "store/quorum_store.h"
#include "store/store_telemetry.h"

namespace p2p::service {

struct StoreServiceConfig {
  /// Worker threads. 0 resolves P2P_THREADS, then hardware concurrency.
  std::size_t workers = 0;
  /// Ops per claimed stripe (one snapshot pin per stripe).
  std::size_t stripe = 256;
  /// Routing behaviour of replica sub-queries.
  core::RouterConfig router;
  std::uint64_t seed = 1;
  /// Optional telemetry: worker w records store metrics through registry
  /// shard w % shard_count(). Null = off.
  telemetry::Registry* registry = nullptr;
  /// Handles used when `registry` is set (create via StoreMetrics::create
  /// on the same registry).
  store::StoreMetrics metrics;
};

/// Aggregate outcome of one run_all() call.
struct StoreServiceStats {
  std::size_t ops = 0;        ///< requested
  std::size_t completed = 0;  ///< executed — the prefix [0, completed)
  std::size_t ok = 0;         ///< quorum reached among completed
  std::size_t stripes = 0;
  /// Snapshot churn-epoch range the stripes executed against.
  std::uint64_t min_epoch = 0;
  std::uint64_t max_epoch = 0;

  [[nodiscard]] double ok_fraction() const noexcept {
    return completed == 0
               ? 0.0
               : static_cast<double>(ok) / static_cast<double>(completed);
  }
};

/// The op frontend: W pool workers executing quorum ops against the latest
/// published snapshot.
class StoreService {
 public:
  /// `publisher` and `store` must outlive the service, be over the same
  /// graph, and the publisher must have reader capacity for worker_count()
  /// readers. Throws std::invalid_argument on config/graph mismatches.
  StoreService(ViewPublisher& publisher, store::QuorumStore& store,
               StoreServiceConfig config = {});

  StoreService(const StoreService&) = delete;
  StoreService& operator=(const StoreService&) = delete;

  /// Executes ops[i] into results[i] across the worker pool; blocks until
  /// every stripe is drained (or request_stop() cut the run short). One call
  /// at a time; results.size() >= ops.size().
  StoreServiceStats run_all(std::span<const store::Op> ops,
                            std::span<store::OpResult> results);

  /// Graceful drain: workers finish their in-flight stripe and claim no
  /// more; subsequent run_all() calls return zero-completed stats. Sticky.
  void request_stop() noexcept { executor_.request_stop(); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return executor_.stop_requested();
  }

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return executor_.worker_count();
  }
  [[nodiscard]] const StoreServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  store::QuorumStore* store_;
  StoreServiceConfig config_;
  StripeExecutor executor_;
};

}  // namespace p2p::service
