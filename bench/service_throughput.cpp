// Concurrent-routing-service headline bench: aggregate routes/sec when W
// router threads drain one query stream against epoch-published FailureView
// snapshots while a churn writer advances epochs.
//
// Sweeps reader-thread count {1,2,4,8,16} x churn writer rate {0, 1k, 10k,
// 100k} liveness flips/sec over one built overlay (default n = 1e5). The
// writer thread applies ChurnLog deltas to the publisher's private view at
// the target rate and publishes coalesced snapshots at most once per
// P2P_SERVICE_PUBLISH_US (default 1000us); worker threads pin the latest
// snapshot per stripe (service::RoutingService). Per cell it reports
// aggregate routes/sec, scaling efficiency vs the 1-thread cell at the same
// writer rate, delivered fraction, and the epoch-staleness distribution
// (p50/p99 of "epochs behind the writer", sampled per completed stripe).
//
// Self-check: with the writer idle, 4 reader threads must clear 2.5x the
// 1-thread throughput — enforced only when the host actually has >= 4
// hardware threads (P2P_SERVICE_NO_GATE=1 skips explicitly; a 1-core
// container cannot physically scale and only warns).
//
// Telemetry: unless P2P_TELEMETRY=0 (or the library was built with
// P2P_TELEMETRY=OFF), every cell routes through a telemetry::Registry — one
// shard per worker plus a writer shard for the publisher — and the staleness
// quantiles come from the registry's service.staleness_hist instead of an
// ad-hoc sorted tally. The headline cell (4 threads @ 10k flips/sec) writes
// its epoch-aligned JSON snapshot to BENCH_service_telemetry.json; with
// P2P_TRACE_SAMPLE=k set, sampled hop trails land in
// BENCH_service_trails.json.
//
// Results merge into BENCH_micro.json under service_* keys (an existing
// service section is replaced in place and every other key kept). Knobs:
// P2P_NODES, P2P_MESSAGES (queries per cell), P2P_CHURN_EVENTS (trace
// length), P2P_TELEMETRY, P2P_TRACE_SAMPLE; P2P_THREADS is intentionally
// ignored here — the sweep *is* the thread axis.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "service/routing_service.h"
#include "service/service_telemetry.h"
#include "service/view_publisher.h"
#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"

namespace {

using namespace p2p;
using bench::seconds_since;

/// One writer thread pacing ChurnLog deltas into a publisher.
struct WriterState {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> deltas_applied{0};
  std::atomic<std::uint64_t> flips_applied{0};
  std::atomic<std::uint64_t> trace_exhausted{0};
};

void churn_writer(service::ViewPublisher& pub, const churn::ChurnLog& log,
                  double flips_per_sec, double publish_interval_s,
                  WriterState& state) {
  const auto t0 = std::chrono::steady_clock::now();
  auto last_publish = t0;
  std::size_t next_delta = 0;
  std::uint64_t flips = 0;
  bool dirty = false;
  while (!state.stop.load(std::memory_order_relaxed)) {
    const double target = flips_per_sec * seconds_since(t0);
    while (static_cast<double>(flips) < target && next_delta < log.size()) {
      const failure::FailureDelta& delta = log.delta(next_delta++);
      pub.writer_view().apply(delta);
      flips += delta.change_count();
      dirty = true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (dirty && std::chrono::duration<double>(now - last_publish).count() >=
                     publish_interval_s) {
      pub.publish();
      last_publish = now;
      dirty = false;
    }
    if (next_delta >= log.size()) {
      state.trace_exhausted.store(1, std::memory_order_relaxed);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (dirty) pub.publish();
  state.deltas_applied.store(next_delta, std::memory_order_relaxed);
  state.flips_applied.store(flips, std::memory_order_relaxed);
}

struct CellResult {
  std::size_t threads = 0;
  double flips_per_sec = 0;
  double routes_per_sec = 0;
  double delivered_fraction = 0;
  double staleness_p50 = 0;
  double staleness_p99 = 0;
  std::uint64_t epochs_advanced = 0;
  bool trace_exhausted = false;
  /// Telemetry-derived extras (zero when P2P_TELEMETRY=0 or compiled out).
  bool telemetry = false;
  double pin_ns_p99 = 0;
  std::uint64_t telem_queries = 0;
  std::uint64_t telem_delivered = 0;
  std::uint64_t telem_publications = 0;
  std::uint64_t trails = 0;
  std::string exporter_json;  ///< epoch-aligned JSON snapshot export
  std::string trails_json;    ///< flight-recorder dump (sampling on only)
};

/// Fallback staleness quantile for telemetry-off runs (the instrumented path
/// reads the registry's staleness histogram instead).
double percentile(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[std::min(idx, samples.size() - 1)]);
}

CellResult run_cell(const churn::ChurnLog& log,
                    std::span<const core::Query> queries, std::size_t threads,
                    double flips_per_sec, const core::BatchConfig& batch,
                    double publish_interval_s) {
  CellResult cell;
  cell.threads = threads;
  cell.flips_per_sec = flips_per_sec;

  service::ViewPublisher publisher(log.baseline(), threads + 4);

  // Telemetry: one registry shard per worker plus a dedicated shard for the
  // churn writer; the whole serving stack (pipelines, stripes, publisher)
  // snapshots as one epoch-aligned unit. P2P_TRACE_SAMPLE=k additionally
  // samples 1-in-k hop trails per worker.
  const bool telem = bench::telemetry_enabled_from_env();
  std::unique_ptr<telemetry::Registry> reg;
  std::unique_ptr<telemetry::FlightRecorder> flight;
  service::ServiceTelemetry sink;
  if (telem) {
    reg = std::make_unique<telemetry::Registry>(threads + 1);
    const std::uint64_t sample = bench::trace_sample_from_env();
    if (sample > 0) {
      flight = std::make_unique<telemetry::FlightRecorder>(threads, 256,
                                                           sample, 64);
    }
    sink = service::ServiceTelemetry::create(*reg, flight.get());
    const service::PublisherMetrics pub_metrics =
        service::PublisherMetrics::create(*reg);
    publisher.attach_telemetry(reg->recorder(threads), pub_metrics);
  }

  service::ServiceConfig cfg;
  cfg.workers = threads;
  cfg.batch = batch;
  cfg.seed = 17;
  if (telem) cfg.telemetry = &sink;
  service::RoutingService svc(publisher, cfg);

  std::vector<core::RouteResult> results(queries.size());
  WriterState writer_state;
  std::thread writer;
  if (flips_per_sec > 0) {
    writer = std::thread(churn_writer, std::ref(publisher), std::cref(log),
                         flips_per_sec, publish_interval_s,
                         std::ref(writer_state));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const service::ServiceStats stats = svc.route_all(queries, results);
  const double seconds = seconds_since(t0);
  writer_state.stop.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();

  cell.routes_per_sec = static_cast<double>(stats.routed) / seconds;
  cell.delivered_fraction = stats.delivered_fraction();
  cell.epochs_advanced = stats.max_epoch;
  cell.trace_exhausted =
      writer_state.trace_exhausted.load(std::memory_order_relaxed) != 0;
  if (telem) {
    const telemetry::Snapshot snap =
        reg->snapshot(stats.min_epoch, stats.max_epoch);
    // Log bins clamp 0 to 1, so bin 0 means "at most one epoch behind":
    // idle-writer cells read ~1 here where the exact tally reads 0.
    if (const auto* h = snap.histogram("service.staleness_hist")) {
      cell.staleness_p50 = h->p50();
      cell.staleness_p99 = h->p99();
    }
    if (const auto* h = snap.histogram("service.pin_ns_hist"))
      cell.pin_ns_p99 = h->p99();
    cell.telemetry = true;
    cell.telem_queries = snap.counter_or("service.route.queries");
    cell.telem_delivered = snap.counter_or("service.route.delivered");
    cell.telem_publications = snap.counter_or("publisher.publications");
    cell.exporter_json = telemetry::json_text(snap);
    if (flight) {
      cell.trails = flight->trail_count();
      cell.trails_json = flight->dump_json();
    }
    if (cell.telem_queries != stats.routed) {
      std::fprintf(stderr,
                   "service_throughput: telemetry query count %llu != "
                   "service stats %zu\n",
                   static_cast<unsigned long long>(cell.telem_queries),
                   stats.routed);
    }
  } else {
    cell.staleness_p50 = percentile(stats.staleness, 0.50);
    cell.staleness_p99 = percentile(stats.staleness, 0.99);
  }
  return cell;
}

/// Writes `content` to `path` (overwriting), warning on failure.
void write_file(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "service_throughput: cannot open %s for writing\n",
                 path);
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

struct ServiceMetrics {
  std::uint64_t nodes = 0;
  std::size_t queries = 0;
  double t1 = 0, t4 = 0, t8 = 0;  ///< idle-writer routes/sec
  double efficiency_t4 = 0;       ///< (t4/t1)/4, fraction of ideal
  double churn10k_t4 = 0;         ///< routes/sec, writer at 10k flips/sec
  double staleness_p99 = 0;       ///< epochs behind, t4 @ 10k flips/sec
  /// Registry-derived extras from the same headline cell (all zero when
  /// telemetry is off — CI only checks key presence).
  double telem_staleness_p50 = 0;
  double telem_pin_ns_p99 = 0;
  std::uint64_t telem_queries = 0;
  std::uint64_t telem_delivered = 0;
  std::uint64_t telem_publications = 0;
  std::uint64_t telem_trails = 0;
};

/// Merges the service section into BENCH_micro.json (bench_common.h).
void merge_json(const ServiceMetrics& m, const char* path) {
  bench::JsonSection j;
  j.add("service_nodes", m.nodes);
  j.add("service_queries", m.queries);
  j.add("service_routes_per_sec_t1", m.t1, 1);
  j.add("service_routes_per_sec_t4", m.t4, 1);
  j.add("service_routes_per_sec_t8", m.t8, 1);
  j.add("service_scaling_efficiency", m.efficiency_t4, 4);
  j.add("service_routes_per_sec_churn10k_t4", m.churn10k_t4, 1);
  j.add("service_epoch_staleness_p99", m.staleness_p99, 1);
  j.add("service_telemetry_staleness_p50", m.telem_staleness_p50, 1);
  j.add("service_telemetry_pin_ns_p99", m.telem_pin_ns_p99, 0);
  j.add("service_telemetry_queries", m.telem_queries);
  j.add("service_telemetry_delivered", m.telem_delivered);
  j.add("service_telemetry_publications", m.telem_publications);
  j.add("service_telemetry_trails", m.telem_trails);
  bench::merge_json_section(path, "service_throughput", "service_", j);
}

}  // namespace

int main() {
  const std::uint64_t n = util::env_u64("P2P_NODES", 100000);
  const auto query_count =
      static_cast<std::size_t>(util::env_u64("P2P_MESSAGES", 1 << 16));
  const auto trace_epochs =
      static_cast<std::size_t>(util::env_u64("P2P_CHURN_EVENTS", 20000));
  const double publish_interval_s =
      static_cast<double>(util::env_u64("P2P_SERVICE_PUBLISH_US", 1000)) * 1e-6;
  const core::BatchConfig batch = bench::batch_config_from_env();

  util::ThreadPool build_pool = bench::pool_from_env();
  util::Rng rng(42);
  const graph::BuildSpec spec =
      bench::power_law_spec(n, bench::lg_links(n));
  const auto t_build = std::chrono::steady_clock::now();
  const graph::OverlayGraph g = graph::build_overlay(spec, rng, build_pool);
  std::printf("service_throughput: n=%llu built in %.2fs\n",
              static_cast<unsigned long long>(n), seconds_since(t_build));

  // Node-churn trace for the writer (node liveness only: the link bitset
  // never allocates, so a published snapshot is the packed node bitset plus
  // the byte sideband — the cheap, common serving case).
  churn::TraceSpec trace_spec;
  trace_spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  trace_spec.duration = static_cast<double>(trace_epochs);
  trace_spec.batch_interval = 1.0;
  trace_spec.kill_rate = 8.0;
  trace_spec.revive_rate = 8.0;
  util::Rng trace_rng(7);
  const churn::ChurnLog log = churn::make_trace(g, trace_spec, trace_rng);
  std::printf("service_throughput: trace of %zu epochs (%zu flips)\n",
              log.size(), log.total_changes());

  // One fixed query workload for every cell (drawn at the all-alive epoch 0
  // baseline, the same way sim::run_batch draws its load).
  std::vector<core::Query> queries(query_count);
  util::Rng query_rng(23);
  for (core::Query& q : queries) {
    const auto src = static_cast<graph::NodeId>(query_rng.next_below(n));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<graph::NodeId>(query_rng.next_below(n));
    }
    q = {src, g.position(dst)};
  }

  const std::size_t thread_axis[] = {1, 2, 4, 8, 16};
  const double rate_axis[] = {0.0, 1000.0, 10000.0, 100000.0};
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "service_throughput: %zu queries/cell, publish interval %.0fus, "
      "%u hardware threads\n",
      query_count, publish_interval_s * 1e6, hw);
  std::printf("%8s %12s %14s %10s %8s %8s %8s\n", "threads", "flips/s",
              "routes/s", "vs t1", "deliv%", "stale50", "stale99");

  ServiceMetrics m;
  m.nodes = n;
  m.queries = query_count;
  double t1_by_rate[4] = {0, 0, 0, 0};
  for (std::size_t r = 0; r < 4; ++r) {
    for (const std::size_t threads : thread_axis) {
      const CellResult cell = run_cell(log, queries, threads, rate_axis[r],
                                       batch, publish_interval_s);
      if (threads == 1) t1_by_rate[r] = cell.routes_per_sec;
      const double vs_t1 =
          t1_by_rate[r] > 0 ? cell.routes_per_sec / t1_by_rate[r] : 0.0;
      std::printf("%8zu %12.0f %14.0f %9.2fx %7.1f%% %8.0f %8.0f%s\n",
                  threads, rate_axis[r], cell.routes_per_sec, vs_t1,
                  100.0 * cell.delivered_fraction, cell.staleness_p50,
                  cell.staleness_p99,
                  cell.trace_exhausted ? "  (trace exhausted)" : "");
      if (rate_axis[r] == 0.0) {
        if (threads == 1) m.t1 = cell.routes_per_sec;
        if (threads == 4) m.t4 = cell.routes_per_sec;
        if (threads == 8) m.t8 = cell.routes_per_sec;
      }
      if (rate_axis[r] == 10000.0 && threads == 4) {
        m.churn10k_t4 = cell.routes_per_sec;
        m.staleness_p99 = cell.staleness_p99;
        m.telem_staleness_p50 = cell.staleness_p50;
        m.telem_pin_ns_p99 = cell.pin_ns_p99;
        m.telem_queries = cell.telem_queries;
        m.telem_delivered = cell.telem_delivered;
        m.telem_publications = cell.telem_publications;
        m.telem_trails = cell.trails;
        if (cell.telemetry) {
          write_file("BENCH_service_telemetry.json", cell.exporter_json);
          if (!cell.trails_json.empty())
            write_file("BENCH_service_trails.json", cell.trails_json);
          std::printf(
              "service_throughput: telemetry snapshot (epochs %llu..%llu via "
              "%llu publications, pin p99 %.0fns) -> "
              "BENCH_service_telemetry.json%s\n",
              0ULL, static_cast<unsigned long long>(cell.epochs_advanced),
              static_cast<unsigned long long>(cell.telem_publications),
              cell.pin_ns_p99,
              cell.trails > 0 ? " (+ BENCH_service_trails.json)" : "");
        }
      }
    }
  }
  m.efficiency_t4 = m.t1 > 0 ? (m.t4 / m.t1) / 4.0 : 0.0;

  std::printf(
      "service_throughput: t1 %.3g, t4 %.3g (%.0f%% of ideal), t8 %.3g "
      "routes/s idle; %.3g routes/s under 10k flips/s (staleness p99 %.0f "
      "epochs)\n",
      m.t1, m.t4, 100.0 * 4.0 * m.efficiency_t4, m.t8, m.churn10k_t4,
      m.staleness_p99);
  merge_json(m, "BENCH_micro.json");

  // Scaling gate: only meaningful where 4 reader threads can actually run in
  // parallel. CI enforces; a 1-core container prints the warning instead.
  const bool gate_disabled = util::env_u64("P2P_SERVICE_NO_GATE", 0) != 0;
  const double speedup_t4 = m.t1 > 0 ? m.t4 / m.t1 : 0.0;
  if (hw >= 4 && !gate_disabled) {
    if (speedup_t4 < 2.5) {
      std::fprintf(stderr,
                   "service_throughput: t4/t1 speedup %.2fx below the 2.5x "
                   "acceptance floor (hw=%u)\n",
                   speedup_t4, hw);
      return 1;
    }
  } else {
    std::printf(
        "service_throughput: scaling gate skipped (%s); t4/t1 = %.2fx\n",
        gate_disabled ? "P2P_SERVICE_NO_GATE=1" : "fewer than 4 hardware threads",
        speedup_t4);
  }
  return 0;
}
