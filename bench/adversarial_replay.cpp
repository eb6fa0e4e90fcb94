// Adversarial-replay headline bench: the full threat model, composed.
//
// One frozen overlay (n = 1e5 by default) is attacked on two timelines at
// once, replayed through churn::AdversarialReplay:
//
//  * crash waves   — kAdversarialWaves kills the top in-degree hubs every
//    wave_period ms and revives them at half-period (ChurnLog deltas);
//  * corruption waves — churn::make_byzantine_waves corrupts the *next* tier
//    of hubs on the same rhythm (hub_offset = wave_size keeps the two
//    adversaries on disjoint targets), healing at half-period.
//
// Over that trace the bench sweeps Byzantine behaviour {drop, misroute} ×
// routing stack {plain, off, on} with identical workloads and seeds:
//
//  * plain — fixed k diverse walks (no escalation, no reputation): the
//    baseline redundant router;
//  * off   — escalation on (retry batches up to 3k walks), reputation off;
//  * on    — escalation + reputation: observations feed the distrust
//    sideband and escalation batches route around suspects.
//
// Reported per cell: delivery rate, redundancy cost (messages per delivered
// search), and mean recovery time (heal instant -> first delivered
// completion).
//
// Results merge into BENCH_micro.json under adversarial_* keys (an existing
// adversarial section is replaced in place and every other key kept). The
// bench self-enforces two acceptance floors (P2P_ADV_NO_GATE=1 skips both
// for smoke runs at toy scales): under composed misroute, the full stack
// must deliver at least as well as plain k-walk; and averaged over both
// behaviours, reputation-on must not fall below reputation-off.
//
// Telemetry: unless P2P_TELEMETRY=0 (or the library was built with
// P2P_TELEMETRY=OFF), every cell records walk outcomes and driver event
// throughput through a telemetry::Registry; redundancy (msgs/query) and
// best-hops quantiles come from the registry histograms, and the full-stack
// misroute cell writes its epoch-aligned JSON snapshot to
// BENCH_adversarial_telemetry.json.
//
// Knobs: P2P_NODES, P2P_MESSAGES (searches per cell), P2P_ADV_WAVES,
// P2P_ADV_WAVE_SIZE, P2P_ADV_PATHS, P2P_ADV_NO_GATE, P2P_TELEMETRY.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "churn/adversarial_replay.h"
#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/route_telemetry.h"
#include "failure/byzantine.h"
#include "failure/reputation.h"
#include "sim/event_queue.h"
#include "telemetry/export.h"

namespace {

using namespace p2p;
using bench::seconds_since;

/// One sweep cell: behaviour × reputation over the shared composed trace.
struct CellResult {
  double delivery_rate = 0.0;
  double msgs_per_delivery = 0.0;
  double recovery_ms = 0.0;  ///< mean heal -> first-delivery gap, 0 if none
  double routes_per_sec = 0.0;
  std::size_t escalations = 0;
  /// Registry-derived extras (zero when P2P_TELEMETRY=0 or compiled out).
  bool telemetry = false;
  double msgs_p50 = 0.0;       ///< secure.messages_hist: redundancy per query
  double msgs_p99 = 0.0;
  double best_hops_p50 = 0.0;  ///< fastest successful walk, delivered only
  std::uint64_t telem_queries = 0;
  std::uint64_t telem_delivered = 0;
  std::uint64_t telem_events = 0;  ///< crash + corruption + decay deltas
  std::string exporter_json;       ///< epoch-aligned JSON snapshot export
};

struct AdversarialMetrics {
  std::uint64_t nodes = 0;
  std::size_t queries = 0;
  std::size_t waves = 0;
  std::size_t wave_size = 0;
  std::size_t paths = 0;
  CellResult drop_plain, drop_off, drop_on;
  CellResult misroute_plain, misroute_off, misroute_on;
};

/// Mean over waves of (first delivered completion at or after the heal
/// instant) - (heal instant): how quickly service recovers once an attack
/// wave ends. Waves with no subsequent delivery are skipped.
double mean_recovery_ms(const churn::AdversarialReplay& replay,
                        std::size_t waves, double wave_period) {
  const auto results = replay.results();
  const auto times = replay.completion_times();
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t k = 0; k < waves; ++k) {
    const double heal = static_cast<double>(k) * wave_period + wave_period * 0.5;
    double first = -1.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].delivered || times[i] < heal) continue;
      if (first < 0.0 || times[i] < first) first = times[i];
    }
    if (first < 0.0) continue;
    total += first - heal;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

/// Merges the adversarial section into BENCH_micro.json (bench_common.h).
void merge_json(const AdversarialMetrics& m, const char* path) {
  bench::JsonSection j;
  j.add("adversarial_nodes", m.nodes);
  j.add("adversarial_queries", m.queries);
  j.add("adversarial_waves", m.waves);
  j.add("adversarial_wave_size", m.wave_size);
  j.add("adversarial_paths", m.paths);
  j.add("adversarial_drop_delivery_plain", m.drop_plain.delivery_rate, 4);
  j.add("adversarial_drop_delivery_off", m.drop_off.delivery_rate, 4);
  j.add("adversarial_drop_delivery_on", m.drop_on.delivery_rate, 4);
  j.add("adversarial_misroute_delivery_plain", m.misroute_plain.delivery_rate, 4);
  j.add("adversarial_misroute_delivery_off", m.misroute_off.delivery_rate, 4);
  j.add("adversarial_misroute_delivery_on", m.misroute_on.delivery_rate, 4);
  j.add("adversarial_misroute_msgs_per_delivery_off", m.misroute_off.msgs_per_delivery, 2);
  j.add("adversarial_misroute_msgs_per_delivery_on", m.misroute_on.msgs_per_delivery, 2);
  j.add("adversarial_misroute_recovery_ms_off", m.misroute_off.recovery_ms, 3);
  j.add("adversarial_misroute_recovery_ms_on", m.misroute_on.recovery_ms, 3);
  j.add("adversarial_routes_per_sec", m.misroute_on.routes_per_sec, 1);
  j.add("adversarial_telemetry_queries", m.misroute_on.telem_queries);
  j.add("adversarial_telemetry_delivered", m.misroute_on.telem_delivered);
  j.add("adversarial_telemetry_events", m.misroute_on.telem_events);
  j.add("adversarial_telemetry_msgs_p50", m.misroute_on.msgs_p50, 1);
  j.add("adversarial_telemetry_msgs_p99", m.misroute_on.msgs_p99, 1);
  j.add("adversarial_telemetry_best_hops_p50", m.misroute_on.best_hops_p50, 1);
  bench::merge_json_section(path, "adversarial_replay", "adversarial_", j);
}

}  // namespace

int main() {
  AdversarialMetrics m;
  m.nodes = util::env_u64("P2P_NODES", 100000);
  m.queries = static_cast<std::size_t>(util::env_u64("P2P_MESSAGES", 1 << 15));
  m.waves = static_cast<std::size_t>(util::env_u64("P2P_ADV_WAVES", 8));
  // Each adversary (crash and corruption) grabs 1/8 of the network per wave
  // by default — hubs, so their traffic share is far larger than 12.5%.
  m.wave_size = static_cast<std::size_t>(
      util::env_u64("P2P_ADV_WAVE_SIZE", m.nodes > 512 ? m.nodes / 8 : 64));
  m.paths = static_cast<std::size_t>(util::env_u64("P2P_ADV_PATHS", 3));
  const double wave_period = 100.0;
  const double duration = static_cast<double>(m.waves) * wave_period;

  util::ThreadPool pool = bench::pool_from_env();
  util::Rng rng(42);
  graph::BuildSpec spec = bench::power_law_spec(m.nodes, bench::lg_links(m.nodes),
                                                /*bidirectional=*/true);
  const auto t_build = std::chrono::steady_clock::now();
  const auto g = graph::build_overlay(spec, rng, pool);
  std::printf("adversarial_replay: n=%llu built in %.2fs (%zu threads)\n",
              static_cast<unsigned long long>(m.nodes), seconds_since(t_build),
              pool.thread_count());

  // The crash half of the composed adversary: hub waves through the ChurnLog.
  churn::TraceSpec trace_spec;
  trace_spec.scenario = churn::TraceSpec::Scenario::kAdversarialWaves;
  trace_spec.duration = duration;
  trace_spec.wave_period = wave_period;
  trace_spec.wave_size = m.wave_size;
  util::Rng trace_rng(7);
  const churn::ChurnLog log = churn::make_trace(g, trace_spec, trace_rng);

  // The Byzantine half: corrupt/heal waves aimed one hub tier deeper, on the
  // same rhythm — every wave, some hubs crash while their peers turn coat.
  churn::ByzantineWaveSpec byz_spec;
  byz_spec.duration = duration;
  byz_spec.wave_period = wave_period;
  byz_spec.wave_size = m.wave_size;
  byz_spec.hub_offset = m.wave_size;
  const auto waves = churn::make_byzantine_waves(g, byz_spec);
  std::printf(
      "adversarial_replay: %zu crash deltas + %zu corruption deltas over "
      "%.0fms (%zu hubs/wave)\n",
      log.size(), waves.size(), duration, m.wave_size);

  const auto run_cell = [&](failure::ByzantineBehavior behavior, bool escalate,
                            bool with_reputation) {
    failure::FailureView view = log.baseline();
    failure::ByzantineSet byz = failure::ByzantineSet::none(g);
    failure::ReputationTable reputation(g);
    core::SecureRouterConfig cfg;
    cfg.paths = m.paths;
    cfg.behavior = behavior;
    cfg.ttl = 2 * bench::lg_links(m.nodes);
    if (escalate) cfg.max_paths = 3 * m.paths;
    if (with_reputation) cfg.reputation = &reputation;

    // Telemetry: the replay driver is single-threaded, so one shard carries
    // both the per-query walk outcomes (SecureRouter) and the driver's
    // event/tick throughput counters. P2P_TELEMETRY=0 leaves it all off.
    const bool telem = bench::telemetry_enabled_from_env();
    std::unique_ptr<telemetry::Registry> reg;
    core::SecureTelemetry sink;
    churn::AdversarialReplayTelemetry driver_telem;
    if (telem) {
      reg = std::make_unique<telemetry::Registry>(1);
      sink.metrics = core::SecureRouteMetrics::create(*reg);
      driver_telem.metrics = churn::AdversarialReplayMetrics::create(*reg);
      sink.recorder = reg->recorder(0);
      driver_telem.recorder = sink.recorder;
      cfg.telemetry = &sink;
    }

    const core::SecureRouter router(g, view, byz, cfg);
    sim::EventQueue queue;
    churn::AdversarialReplayConfig rc;
    rc.queries = m.queries;
    rc.seed = util::env_u64("P2P_ADV_SEED", 11);
    rc.decay_interval_ms = with_reputation ? wave_period * 0.5 : 0.0;
    // Spread the workload across the whole trace: tick budget ~= expected
    // transmissions (k walks of ~tens of hops each) over the duration.
    rc.ticks_per_ms = static_cast<double>(m.queries * m.paths) * 40.0 / duration;
    if (telem) rc.telemetry = &driver_telem;
    churn::AdversarialReplay replay(router, log, waves, view, byz, queue, rc);
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = replay.run();
    const double secs = seconds_since(t0);
    CellResult cell;
    cell.delivery_rate = stats.success_rate();
    cell.msgs_per_delivery = stats.messages_per_delivery();
    cell.recovery_ms = mean_recovery_ms(replay, m.waves, wave_period);
    cell.routes_per_sec = static_cast<double>(stats.routed) / secs;
    cell.escalations = stats.escalations;
    std::printf(
        "  %-8s %-5s  delivered %.1f%%  %.1f msgs/delivery  "
        "recovery %.2fms  %zu escalations  (%.3g routes/s)\n"
        "           walks: %zu launched, %zu died, %zu stuck, %zu ttl\n",
        behavior == failure::ByzantineBehavior::kDrop ? "drop" : "misroute",
        with_reputation ? "rep"
        : escalate      ? "esc"
                        : "plain",
        100.0 * cell.delivery_rate, cell.msgs_per_delivery, cell.recovery_ms,
        cell.escalations, cell.routes_per_sec, stats.walks_launched,
        stats.walks_died, stats.walks_stuck, stats.walks_ttl_expired);
    if (telem) {
      const telemetry::Snapshot snap = reg->snapshot(0, stats.final_epoch);
      cell.telemetry = true;
      if (const auto* h = snap.histogram("secure.messages_hist")) {
        cell.msgs_p50 = h->p50();
        cell.msgs_p99 = h->p99();
      }
      if (const auto* h = snap.histogram("secure.best_hops_hist"))
        cell.best_hops_p50 = h->p50();
      cell.telem_queries = snap.counter_or("secure.queries");
      cell.telem_delivered = snap.counter_or("secure.delivered");
      cell.telem_events = snap.counter_or("adversarial.churn_deltas") +
                          snap.counter_or("adversarial.byzantine_deltas") +
                          snap.counter_or("adversarial.decays");
      cell.exporter_json = telemetry::json_text(snap);
      std::printf(
          "           telemetry: msgs/query p50 %.0f p99 %.0f, best-hops "
          "p50 %.0f, %llu events\n",
          cell.msgs_p50, cell.msgs_p99, cell.best_hops_p50,
          static_cast<unsigned long long>(cell.telem_events));
      if (cell.telem_queries != stats.routed) {
        std::fprintf(stderr,
                     "adversarial_replay: telemetry query count %llu != "
                     "replay stats %zu\n",
                     static_cast<unsigned long long>(cell.telem_queries),
                     stats.routed);
      }
    }
    return cell;
  };

  m.drop_plain = run_cell(failure::ByzantineBehavior::kDrop, false, false);
  m.drop_off = run_cell(failure::ByzantineBehavior::kDrop, true, false);
  m.drop_on = run_cell(failure::ByzantineBehavior::kDrop, true, true);
  m.misroute_plain = run_cell(failure::ByzantineBehavior::kMisroute, false, false);
  m.misroute_off = run_cell(failure::ByzantineBehavior::kMisroute, true, false);
  m.misroute_on = run_cell(failure::ByzantineBehavior::kMisroute, true, true);

  merge_json(m, "BENCH_micro.json");

  // Full-stack misroute is the headline cell: its epoch-aligned snapshot is
  // the exporter artifact (walk-outcome counters + redundancy histograms).
  if (m.misroute_on.telemetry) {
    std::FILE* f = std::fopen("BENCH_adversarial_telemetry.json", "w");
    if (f != nullptr) {
      std::fwrite(m.misroute_on.exporter_json.data(), 1,
                  m.misroute_on.exporter_json.size(), f);
      std::fclose(f);
      std::printf(
          "adversarial_replay: telemetry snapshot -> "
          "BENCH_adversarial_telemetry.json\n");
    } else {
      std::fprintf(stderr,
                   "adversarial_replay: cannot open "
                   "BENCH_adversarial_telemetry.json for writing\n");
    }
  }

  if (util::env_u64("P2P_ADV_NO_GATE", 0) == 0) {
    if (m.misroute_on.delivery_rate < m.misroute_plain.delivery_rate) {
      std::fprintf(stderr,
                   "adversarial_replay: full-stack delivery %.4f fell below "
                   "plain k-walk %.4f under composed misroute "
                   "(P2P_ADV_NO_GATE=1 to skip)\n",
                   m.misroute_on.delivery_rate, m.misroute_plain.delivery_rate);
      return 1;
    }
    const double on = m.drop_on.delivery_rate + m.misroute_on.delivery_rate;
    const double off = m.drop_off.delivery_rate + m.misroute_off.delivery_rate;
    if (on < off) {
      std::fprintf(stderr,
                   "adversarial_replay: reputation-on mean delivery %.4f fell "
                   "below reputation-off %.4f over the composed scenario "
                   "(P2P_ADV_NO_GATE=1 to skip)\n",
                   on / 2.0, off / 2.0);
      return 1;
    }
  }
  return 0;
}
