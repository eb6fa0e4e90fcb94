// Multi-threaded routing frontend over epoch-published FailureView
// snapshots — the "heavy traffic from millions of users" serving shape: many
// router threads draining one query stream while a single churn writer
// advances epochs through a ViewPublisher.
//
// Threading is service::StripeExecutor's (service/stripe_executor.h); per
// claimed stripe this frontend runs a worker-local core::BatchPipeline (one
// Rng substream per query) over the pinned view, and stamps each RouteResult
// (completion_epoch) with the epoch of the snapshot it routed against.
//
// Determinism: query `g` always runs on the stream
// util::substream(stripe_seed_base(seed, g / stripe), g % stripe), so with
// the writer idle every result is bit-identical across any worker count
// (tests/service_test.cpp pins this); with a live writer, results also
// depend on which epoch each stripe pinned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/router.h"
#include "service/stripe_executor.h"
#include "service/view_publisher.h"
#include "util/rng.h"

namespace p2p::service {

struct ServiceConfig {
  /// Router threads. 0 resolves P2P_THREADS from the environment, then
  /// hardware concurrency (util/options.h).
  std::size_t workers = 0;
  /// When non-empty, overrides `workers`: one worker per entry, pinned to
  /// that CPU (best-effort; see util::ThreadPool). The NUMA-sharded service
  /// sets this so a shard's snapshot pins and graph traffic stay on one
  /// socket.
  std::vector<int> affinity;
  /// Queries per claimed stripe: the staleness/contention trade — one pin
  /// and one atomic claim per `stripe` queries.
  std::size_t stripe = 1024;
  core::RouterConfig router;
  core::BatchConfig batch;
  /// Master seed; see the determinism contract above.
  std::uint64_t seed = 1;
  /// Optional service-wide telemetry (service/service_telemetry.h): worker w
  /// records per-query outcomes and per-stripe epoch/staleness/pin metrics
  /// through registry shard w % shard_count(), and samples hop trails into
  /// the bundle's FlightRecorder when one is wired. Null = off; any
  /// BatchConfig::telemetry/trace set in `batch` is overridden per worker.
  /// Recording never perturbs results — the determinism contract holds with
  /// telemetry on or off.
  const ServiceTelemetry* telemetry = nullptr;
};

/// Aggregate outcome of one route_all() call.
struct ServiceStats {
  std::size_t queries = 0;  ///< requested
  std::size_t routed = 0;   ///< completed — the prefix [0, routed)
  std::size_t delivered = 0;
  double mean_hops_delivered = 0.0;
  std::size_t stripes = 0;  ///< stripes completed
  /// Snapshot churn-epoch range the stripes routed against.
  std::uint64_t min_epoch = 0;
  std::uint64_t max_epoch = 0;
  /// Per completed stripe: publisher's latest epoch at stripe completion
  /// minus the epoch the stripe routed against (0 under an idle writer).
  std::vector<std::uint64_t> staleness;

  [[nodiscard]] double delivered_fraction() const noexcept {
    return routed == 0 ? 0.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(routed);
  }
};

/// The query frontend: W pool workers batch-routing against the latest
/// published snapshot.
class RoutingService {
 public:
  /// `publisher` must outlive the service and have reader capacity for
  /// worker_count() readers. Throws std::invalid_argument when `config`
  /// names an invalid router configuration for the publisher's graph (the
  /// same validation core::Router performs).
  explicit RoutingService(ViewPublisher& publisher, ServiceConfig config = {});

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Routes queries[i] into results[i] across the worker pool; blocks until
  /// every stripe is drained (or request_stop() cut the run short). One call
  /// at a time; preconditions as Router::route for every query, and
  /// results.size() >= queries.size().
  ServiceStats route_all(std::span<const core::Query> queries,
                         std::span<core::RouteResult> results);

  /// Asks workers to finish their in-flight stripe and stop claiming.
  /// Sticky: the service completes the current route_all() early and
  /// refuses subsequent ones (they return zero-routed stats). Callable from
  /// any thread — this is the graceful-drain path.
  void request_stop() noexcept { executor_.request_stop(); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return executor_.stop_requested();
  }

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return executor_.worker_count();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  /// Seed base of stripe `stripe_index`: query g of a route_all() call runs
  /// on util::substream(stripe_seed_base(seed, g / stripe), g % stripe).
  /// Exposed so equivalence tests can reproduce any query's stream exactly.
  /// StoreService seeds its stripes the same way, so one master seed
  /// governs both frontends coherently.
  [[nodiscard]] static constexpr std::uint64_t stripe_seed_base(
      std::uint64_t seed, std::uint64_t stripe_index) noexcept {
    return util::splitmix64(seed ^
                            (0x9e3779b97f4a7c15ULL * (stripe_index + 1)));
  }

  /// Resolves a worker count the way the constructor does: explicit value,
  /// else P2P_THREADS, else hardware concurrency (min 1).
  [[nodiscard]] static std::size_t resolve_workers(std::size_t requested);

 private:
  ServiceConfig config_;
  StripeExecutor executor_;
};

}  // namespace p2p::service
