#include "service/routing_service.h"

#include <thread>
#include <utility>

#include "service/service_telemetry.h"
#include "util/options.h"
#include "util/require.h"

namespace p2p::service {

std::size_t RoutingService::resolve_workers(std::size_t requested) {
  if (requested != 0) return requested;
  const util::ScaleOptions opts = util::scale_options_from_env();
  if (opts.threads != 0) return opts.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 1 ? 1 : hw;
}

RoutingService::RoutingService(ViewPublisher& publisher, ServiceConfig config)
    : config_(std::move(config)),
      executor_(publisher, resolve_workers(config_.workers), config_.affinity) {
  util::require(config_.stripe >= 1, "RoutingService: stripe must be >= 1");
  config_.workers = executor_.worker_count();
  executor_.validate(config_.router);
}

ServiceStats RoutingService::route_all(std::span<const core::Query> queries,
                                       std::span<core::RouteResult> results) {
  util::require(results.size() >= queries.size(),
                "RoutingService: results span shorter than queries");
  const graph::OverlayGraph& g = executor_.publisher().graph();
  for (const core::Query& q : queries) {
    util::require_in_range(q.src < g.size(),
                           "RoutingService: query src out of range");
    util::require(g.space().contains(q.target),
                  "RoutingService: query target outside space");
  }

  StripeRunStats run = executor_.run(
      queries.size(), config_.stripe, config_.telemetry,
      [&](std::size_t worker, const StripeExecutor::ClaimLoop& claim) {
        // Telemetry wiring, resolved once per call (never per stripe, never
        // per hop): this worker's per-query route sink for the batch
        // pipeline and its own flight-recorder trace buffer.
        const ServiceTelemetry* telem = config_.telemetry;
        core::BatchConfig batch = config_.batch;
        core::RouteTelemetry route_sink;
        if (telem != nullptr && telem->registry != nullptr) {
          route_sink = core::RouteTelemetry{
              telem->registry->recorder(worker % telem->registry->shard_count()),
              telem->metrics.route};
          batch.telemetry = &route_sink;
          batch.trace =
              telem->flight != nullptr
                  ? &telem->flight->buffer(worker % telem->flight->worker_count())
                  : nullptr;
        }
        claim([&](const Stripe& s) {
          // A fresh Router per stripe binds this stripe to one immutable
          // snapshot; construction is a handful of field stores plus the
          // SIMD eligibility check, amortized over `stripe` queries.
          const core::Router router(g, s.snapshot->view, config_.router);
          core::BatchPipeline(router, queries.subspan(s.begin, s.size()),
                              results.subspan(s.begin, s.size()),
                              stripe_seed_base(config_.seed, s.index), batch)
              .run();
        });
      });

  ServiceStats stats;
  stats.queries = queries.size();
  stats.routed = run.completed;
  stats.stripes = run.stripes;
  stats.min_epoch = run.min_epoch;
  stats.max_epoch = run.max_epoch;
  stats.staleness = std::move(run.staleness);
  double hop_sum = 0.0;
  for (std::size_t i = 0; i < stats.routed; ++i) {
    if (results[i].delivered()) {
      ++stats.delivered;
      hop_sum += static_cast<double>(results[i].hops);
    }
  }
  stats.mean_hops_delivered =
      stats.delivered == 0 ? 0.0 : hop_sum / static_cast<double>(stats.delivered);
  return stats;
}

}  // namespace p2p::service
