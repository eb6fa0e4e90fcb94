// Service-level telemetry wiring: one shared registry serves the per-query
// route metrics (recorded by worker-local BatchPipelines), the per-stripe
// epoch/staleness/pin instrumentation of the StripeExecutor, and the
// publication gauges of ViewPublisher — the whole serving stack snapshots as
// one epoch-aligned unit.
//
// Shard layout: worker w records through shard (w % registry->shard_count());
// the churn writer (ViewPublisher) should be given its own shard — benches
// size the registry as workers + 1 and hand the publisher the last shard.
#pragma once

#include <string>

#include "core/route_telemetry.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"

namespace p2p::service {

/// Handle set for the striped frontend; StripeExecutor records the stripe
/// metrics, so the per-stripe slots behind ServiceStats surface here too:
///  * staleness_hist buckets every completed stripe's staleness (publisher's
///    latest epoch minus the pinned epoch) — p50/p99 come from the snapshot;
///  * stripe_epoch_min/max gauges track the pinned-epoch range;
///  * pin_ns_hist buckets the wall-clock cost of each snapshot pin;
///  * stripes_claimed (one slot per worker shard) exposes claim occupancy —
///    min/max across shards shows stripe-grid imbalance.
struct ServiceMetrics {
  telemetry::Counter stripes;
  telemetry::Gauge stripe_epoch_min;
  telemetry::Gauge stripe_epoch_max;
  telemetry::Gauge stripes_claimed;
  telemetry::Histogram staleness_hist;  // epochs behind; 0 and 1 share bin 0
  telemetry::Histogram pin_ns_hist;
  core::RouteMetrics route;

  static ServiceMetrics create(telemetry::Registry& reg,
                               const std::string& prefix = "service") {
    ServiceMetrics m;
    m.stripes = reg.counter(prefix + ".stripes");
    m.stripe_epoch_min = reg.gauge(prefix + ".stripe_epoch_min");
    m.stripe_epoch_max = reg.gauge(prefix + ".stripe_epoch_max");
    m.stripes_claimed = reg.gauge(prefix + ".stripes_claimed");
    m.staleness_hist =
        reg.histogram(prefix + ".staleness_hist", 2.0, std::uint64_t{1} << 24);
    m.pin_ns_hist =
        reg.histogram(prefix + ".pin_ns_hist", 2.0, std::uint64_t{1} << 30);
    m.route = core::RouteMetrics::create(reg, prefix + ".route");
    return m;
  }
};

/// What ServiceConfig::telemetry points at. The registry must have at least
/// one shard per worker (extra shards are fine); `flight`, when set, samples
/// hop trails through each worker's own TraceBuffer.
struct ServiceTelemetry {
  telemetry::Registry* registry = nullptr;
  ServiceMetrics metrics;
  telemetry::FlightRecorder* flight = nullptr;

  static ServiceTelemetry create(telemetry::Registry& reg,
                                 telemetry::FlightRecorder* flight = nullptr) {
    ServiceTelemetry t;
    t.registry = &reg;
    t.metrics = ServiceMetrics::create(reg);
    t.flight = flight;
    return t;
  }
};

}  // namespace p2p::service
