// Churn-trace generators: diverse failure dynamics compiled into a ChurnLog.
//
// The paper evaluates static failure draws; the DHT measurement literature
// (Kong et al., PAPERS.md) and the robust-routing line (Lenzen–Medina)
// evaluate under *sustained* dynamics. Each generator here emits a different
// dynamic regime over one frozen overlay:
//
//  * kPoissonChurn     — memoryless join/leave: alive nodes die at kill_rate,
//    dead nodes revive at revive_rate (per ms, whole network), batched into
//    one delta per batch_interval.
//  * kFlashCrowd       — a mass departure: normal Poisson churn until
//    crowd_time, then crowd_fraction of the live nodes leave in ONE delta,
//    then departed nodes trickle back at revive_rate.
//  * kRegionalOutage   — correlated failures over the metric space: `outages`
//    times, a geographically contiguous region of region_fraction of the
//    nodes dies in one delta and revives midway to the next outage
//    (positions are correlated, exactly the case independent-failure
//    analysis misses). The damage shape follows the metric: a contiguous id
//    arc on the line/ring, a 2-D rectangle (or L1 ball) of lattice
//    coordinates on the torus — a flattened-id arc on a torus would be a
//    thin row stripe, not a region (TraceSpec::region_shape overrides).
//  * kAdversarialWaves — targeted attack: waves at wave_period kill the
//    wave_size highest in-degree nodes (the CSR hubs greedy routing leans
//    on — on the torus, the Kleinberg in-degree hubs), reviving them at
//    half-period; wave k rotates through the ranked hub list so successive
//    waves hit fresh hubs.
//  * kLinkFlap         — link-level churn: every batch_interval, revive the
//    previously flapped long links and kill a fresh random flap_fraction of
//    the long-link slots (±1 short links never fail, per §4.3.3).
//
// All generators draw exclusively from the caller's Rng, so a (graph, spec,
// seed) triple identifies a trace bit-for-bit. A floor of two live nodes is
// maintained throughout (a routable core, as sim::make_churn_trace does).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "churn/churn_log.h"
#include "failure/byzantine.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::churn {

/// Most fixed-cadence steps (span / interval) a generator here, or
/// AdversarialReplay's reputation-decay schedule, accepts. The cadence loops
/// advance by accumulating `t += interval`; once ulp(t) exceeds the
/// interval that sum stops moving and the loop never ends, so a finite but
/// tiny batch_interval, wave_period or decay interval would hang instead of
/// failing. Below this bound every addition moves t by ~interval. It sits
/// three orders of magnitude above the longest schedule any driver in this
/// repository builds (~10^4 steps); finer cadences throw
/// std::invalid_argument.
inline constexpr double kMaxTraceSteps = 1e7;

/// Parameters of one generated trace. Fields are grouped by the scenario
/// that reads them; unrelated fields are ignored.
struct TraceSpec {
  enum class Scenario {
    kPoissonChurn,
    kFlashCrowd,
    kRegionalOutage,
    kAdversarialWaves,
    kLinkFlap,
  };
  Scenario scenario = Scenario::kPoissonChurn;

  /// Trace length in virtual ms; deltas are committed every batch_interval
  /// (at most kMaxTraceSteps batches).
  double duration = 1000.0;
  double batch_interval = 1.0;

  // kPoissonChurn / kFlashCrowd background churn.
  double kill_rate = 0.5;    ///< node deaths per ms across the network
  double revive_rate = 0.5;  ///< dead-node revivals per ms across the network

  // kFlashCrowd.
  double crowd_fraction = 0.25;  ///< fraction of live nodes departing at once
  double crowd_time = 0.25;      ///< departure instant, as a fraction of duration

  // kRegionalOutage.
  double region_fraction = 0.1;  ///< contiguous fraction of nodes per outage
  std::size_t outages = 4;
  /// Damage footprint of one outage. kAuto picks the geographically honest
  /// shape for the space: an id arc on the line/ring, a rectangle of lattice
  /// coordinates on the torus. kRect / kL1Ball are torus-only (make_trace
  /// throws on a 1-D space); kArc is valid anywhere (on a torus it is the
  /// flattened-id row stripe the 2-D shapes exist to replace).
  enum class RegionShape { kAuto, kArc, kRect, kL1Ball };
  RegionShape region_shape = RegionShape::kAuto;

  // kAdversarialWaves.
  std::size_t wave_size = 64;  ///< hubs killed per wave
  /// ms between wave starts (revive at half); at most kMaxTraceSteps waves.
  double wave_period = 100.0;

  // kLinkFlap.
  double flap_fraction = 0.05;  ///< fraction of long links flapped per batch
};

/// Human-readable scenario name (tables, logs).
[[nodiscard]] const char* scenario_name(TraceSpec::Scenario s) noexcept;

/// All five dynamic regimes in declaration order — the sweep set for drivers
/// that exercise every regime (bench/object_availability, examples).
inline constexpr std::array<TraceSpec::Scenario, 5> kAllScenarios = {
    TraceSpec::Scenario::kPoissonChurn,   TraceSpec::Scenario::kFlashCrowd,
    TraceSpec::Scenario::kRegionalOutage, TraceSpec::Scenario::kAdversarialWaves,
    TraceSpec::Scenario::kLinkFlap};

/// A moderate default spec for scenario `s` over an n-node overlay, scaled
/// to `duration` virtual ms — the shared starting point for drivers sweeping
/// every regime (background node-churn rates scale with n so a trace damages
/// a comparable *fraction* of any network; callers override fields freely).
[[nodiscard]] TraceSpec default_spec(TraceSpec::Scenario s, double duration,
                                     std::size_t n);

/// Generates a trace over the all-alive baseline of `g` per `spec`.
[[nodiscard]] ChurnLog make_trace(const graph::OverlayGraph& g,
                                  const TraceSpec& spec, util::Rng& rng);

/// The `k` nodes with the highest in-degree, descending (ties broken by
/// lower id) — the hub set adversarial waves target. O(links + n log k).
[[nodiscard]] std::vector<graph::NodeId> high_degree_targets(
    const graph::OverlayGraph& g, std::size_t k);

/// The same hub set as a Byzantine adversary (failure/byzantine.h): nodes
/// that would be killed by the first adversarial wave instead stay up and
/// misbehave — links the crash-churn and Byzantine experiments to the same
/// targeting logic.
[[nodiscard]] failure::ByzantineSet hub_adversary(const graph::OverlayGraph& g,
                                                  std::size_t k);

/// Schedule of a time-varying hub adversary: corrupt/heal waves mirroring
/// kAdversarialWaves' kill/revive rhythm, but emitted as ByzantineDeltas for
/// ByzantineSet::apply — the Byzantine half of a composed adversarial
/// replay (crash waves through the ChurnLog, corruption waves through this).
struct ByzantineWaveSpec {
  /// Schedule length in virtual ms.
  double duration = 1000.0;
  /// ms between wave starts; each wave heals at half-period. At most
  /// kMaxTraceSteps waves.
  double wave_period = 100.0;
  /// Hubs corrupted per wave.
  std::size_t wave_size = 64;
  /// Rotation offset into the in-degree hub ranking for wave 0. Crash waves
  /// start at rank 0; an offset lets a composed trace aim corruption at the
  /// *next* tier of hubs so the two adversaries hit disjoint targets (both
  /// rotate forward by wave_size per wave, so equal offsets stay aligned).
  std::size_t hub_offset = 0;
};

/// Generates the corrupt/heal wave schedule over `g`'s in-degree hub
/// ranking, ordered by ByzantineDelta::when (corrupt wave k at
/// k·wave_period, matching heal at k·wave_period + wave_period/2).
/// Deterministic — hub ranking needs no randomness. Apply against a set at
/// epoch 0 whose membership is empty (ByzantineSet::none).
[[nodiscard]] std::vector<failure::ByzantineDelta> make_byzantine_waves(
    const graph::OverlayGraph& g, const ByzantineWaveSpec& spec);

}  // namespace p2p::churn
