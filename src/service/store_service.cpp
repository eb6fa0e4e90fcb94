#include "service/store_service.h"

#include "service/routing_service.h"
#include "util/require.h"

namespace p2p::service {

StoreService::StoreService(ViewPublisher& publisher, store::QuorumStore& store,
                           StoreServiceConfig config)
    : store_(&store),
      config_(config),
      executor_(publisher, RoutingService::resolve_workers(config.workers)) {
  util::require(config_.stripe >= 1, "StoreService: stripe must be >= 1");
  util::require(&publisher.graph() == &store_->graph(),
                "StoreService: publisher and store are over different graphs");
  config_.workers = executor_.worker_count();
  executor_.validate(config_.router);
}

StoreServiceStats StoreService::run_all(std::span<const store::Op> ops,
                                        std::span<store::OpResult> results) {
  util::require(results.size() >= ops.size(),
                "StoreService: results span shorter than ops");
  const graph::OverlayGraph& g = executor_.publisher().graph();
  for (const store::Op& op : ops) {
    util::require_in_range(op.client < g.size(),
                           "StoreService: op client out of range");
  }

  const StripeRunStats run = executor_.run(
      ops.size(), config_.stripe, nullptr,
      [&](std::size_t worker, const StripeExecutor::ClaimLoop& claim) {
        store::StoreTelemetry telem;
        if (config_.registry != nullptr) {
          telem.recorder = config_.registry->recorder(
              worker % config_.registry->shard_count());
          telem.metrics = config_.metrics;
        }
        claim([&](const Stripe& s) {
          // One Router per stripe binds the whole stripe — placement, routed
          // sub-queries, failover, read-repair — to one immutable snapshot.
          const core::Router router(g, s.snapshot->view, config_.router);
          store_->run_batch(router, ops.subspan(s.begin, s.size()),
                            results.subspan(s.begin, s.size()),
                            RoutingService::stripe_seed_base(config_.seed, s.index),
                            telem);
        });
      });

  StoreServiceStats stats;
  stats.ops = ops.size();
  stats.completed = run.completed;
  stats.stripes = run.stripes;
  stats.min_epoch = run.min_epoch;
  stats.max_epoch = run.max_epoch;
  for (std::size_t i = 0; i < stats.completed; ++i) {
    if (results[i].ok) ++stats.ok;
  }
  return stats;
}

}  // namespace p2p::service
