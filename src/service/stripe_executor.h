// The stripe executor RoutingService and StoreService both run on.
//
// A run's items are cut into fixed stripes of `stripe` consecutive items,
// which pool workers claim with one atomic fetch-add (no queue, no locks, no
// per-item contention; each stripe owns a disjoint slice of the results).
// Per claimed stripe a worker pins the latest published snapshot, runs the
// frontend's stripe body against it, records the pinned epoch and its
// staleness at completion, and unpins: the publication protocol stays off
// the per-hop path and staleness is bounded by one stripe's running time.
// The stripe grid depends on (items, stripe) only, never on the worker
// count, so a body seeded from the stripe index is worker-count independent.
//
// run() blocks on a condition variable until the last worker drains; idle
// pool threads sleep. request_stop() makes workers finish their in-flight
// stripe and claim no more: stripes are claimed in order, so run() returns
// the completed prefix [0, completed), and later runs complete nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "core/router.h"
#include "service/view_publisher.h"
#include "util/thread_pool.h"

namespace p2p::service {

struct ServiceTelemetry;  // service/service_telemetry.h

/// One claimed stripe: items [begin, end) against a pinned snapshot.
struct Stripe {
  std::size_t index = 0;  ///< position on the stripe grid
  std::size_t begin = 0;
  std::size_t end = 0;
  const ViewSnapshot* snapshot = nullptr;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Outcome of one StripeExecutor::run.
struct StripeRunStats {
  std::size_t stripes = 0;    ///< stripes completed
  std::size_t completed = 0;  ///< items completed — the prefix [0, completed)
  /// Snapshot epoch range the completed stripes ran against.
  std::uint64_t min_epoch = 0;
  std::uint64_t max_epoch = 0;
  /// Per completed stripe: the publisher's latest epoch at completion minus
  /// the epoch the stripe ran against (0 under an idle writer).
  std::vector<std::uint64_t> staleness;
};

class StripeExecutor {
 public:
  /// Runs one claimed stripe while its snapshot is pinned; must not throw.
  using StripeBody = std::function<void(const Stripe&)>;
  /// `claim(body)` runs `body` on every stripe this worker claims.
  using ClaimLoop = std::function<void(const StripeBody&)>;
  /// Runs once on each pool worker per run: worker-local setup, then one
  /// `claim` call.
  using Worker = std::function<void(std::size_t worker, const ClaimLoop& claim)>;

  /// `publisher` must outlive the executor and have reader capacity for
  /// worker_count() readers. Spawns `workers` pool threads, or one pinned
  /// thread per entry of `affinity` when it is non-empty.
  StripeExecutor(ViewPublisher& publisher, std::size_t workers,
                 const std::vector<int>& affinity = {});

  /// Throws std::invalid_argument when `router` is invalid for the
  /// publisher's graph — here, on the calling thread, because worker-side
  /// Router constructions must never throw.
  void validate(const core::RouterConfig& router);

  /// Runs `items` items as stripes of `stripe` (>= 1) and blocks until every
  /// stripe is drained or request_stop() cut the run short. One call at a
  /// time. With `telemetry`, worker w records ServiceMetrics' stripe metrics
  /// through registry shard w % shard_count().
  StripeRunStats run(std::size_t items, std::size_t stripe,
                     const ServiceTelemetry* telemetry, const Worker& worker);

  /// Asks workers to finish their in-flight stripe and stop claiming.
  /// Sticky; callable from any thread.
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_seq_cst);
  }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return pool_.thread_count();
  }
  [[nodiscard]] const ViewPublisher& publisher() const noexcept {
    return *publisher_;
  }

 private:
  ViewPublisher* publisher_;
  std::atomic<bool> stop_{false};
  util::ThreadPool pool_;

  /// The last worker leaving a run notifies the caller (a dedicated condvar,
  /// not ThreadPool::wait_idle, keeps the executor usable on a shared pool).
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::size_t workers_remaining_ = 0;
};

}  // namespace p2p::service
