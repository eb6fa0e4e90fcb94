#include "churn/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "util/require.h"

namespace p2p::churn {

namespace {

using graph::NodeId;

/// O(1) uniform sampling from both the alive and the dead node population:
/// two swap-remove vectors plus a per-node (which list, where) index. The
/// generator keeps its own tracker rather than querying the log's shadow so
/// kills and revives cost O(1) draws instead of rejection sampling at low
/// alive fractions.
class Membership {
 public:
  explicit Membership(std::size_t n) : alive_(n), where_(n), is_alive_(n, 1) {
    std::iota(alive_.begin(), alive_.end(), NodeId{0});
    std::iota(where_.begin(), where_.end(), std::uint32_t{0});
  }

  [[nodiscard]] std::size_t alive_count() const noexcept { return alive_.size(); }
  [[nodiscard]] std::size_t dead_count() const noexcept { return dead_.size(); }
  [[nodiscard]] bool alive(NodeId u) const noexcept { return is_alive_[u] != 0; }

  [[nodiscard]] NodeId random_alive(util::Rng& rng) const {
    return alive_[rng.next_below(alive_.size())];
  }
  [[nodiscard]] NodeId random_dead(util::Rng& rng) const {
    return dead_[rng.next_below(dead_.size())];
  }

  void kill(NodeId u) {
    if (!alive(u)) return;
    swap_remove(alive_, where_[u]);
    is_alive_[u] = 0;
    where_[u] = static_cast<std::uint32_t>(dead_.size());
    dead_.push_back(u);
  }

  void revive(NodeId u) {
    if (alive(u)) return;
    swap_remove(dead_, where_[u]);
    is_alive_[u] = 1;
    where_[u] = static_cast<std::uint32_t>(alive_.size());
    alive_.push_back(u);
  }

 private:
  void swap_remove(std::vector<NodeId>& list, std::uint32_t at) {
    const NodeId moved = list.back();
    list[at] = moved;
    where_[moved] = at;
    list.pop_back();
  }

  std::vector<NodeId> alive_;
  std::vector<NodeId> dead_;
  std::vector<std::uint32_t> where_;   // index within the node's current list
  std::vector<std::uint8_t> is_alive_;
};

/// Keep at least two live nodes so every epoch stays routable (the same
/// floor sim::make_churn_trace maintains).
constexpr std::size_t kAliveFloor = 2;

void kill_random_nodes(ChurnLog& log, Membership& members, std::size_t count,
                       util::Rng& rng) {
  for (std::size_t i = 0; i < count && members.alive_count() > kAliveFloor; ++i) {
    const NodeId u = members.random_alive(rng);
    members.kill(u);
    log.kill_node(u);
  }
}

void revive_random_nodes(ChurnLog& log, Membership& members, std::size_t count,
                         util::Rng& rng) {
  for (std::size_t i = 0; i < count && members.dead_count() > 0; ++i) {
    const NodeId u = members.random_dead(rng);
    members.revive(u);
    log.revive_node(u);
  }
}

/// Rejects a cadence whose loop over [0, span] would take more than
/// kMaxTraceSteps steps (or never end; see trace_gen.h).
void require_cadence(double span, double interval, const char* what) {
  util::require(std::isfinite(interval) && interval > 0.0 &&
                    span / interval <= kMaxTraceSteps,
                what);
}

void commit_if_staged(ChurnLog& log, double when) {
  if (!log.staged_empty()) log.commit(when);
}

/// Memoryless background churn over [from, to): one batch per interval,
/// Poisson event counts per batch.
void poisson_phase(ChurnLog& log, Membership& members, const TraceSpec& spec,
                   double from, double to, double kill_rate, double revive_rate,
                   util::Rng& rng) {
  for (double t = from + spec.batch_interval; t <= to; t += spec.batch_interval) {
    kill_random_nodes(log, members,
                      static_cast<std::size_t>(util::poisson_sample(
                          rng, kill_rate * spec.batch_interval)),
                      rng);
    revive_random_nodes(log, members,
                        static_cast<std::size_t>(util::poisson_sample(
                            rng, revive_rate * spec.batch_interval)),
                        rng);
    commit_if_staged(log, t);
  }
}

ChurnLog make_poisson(const graph::OverlayGraph& g, const TraceSpec& spec,
                      util::Rng& rng) {
  ChurnLog log(g);
  Membership members(g.size());
  poisson_phase(log, members, spec, 0.0, spec.duration, spec.kill_rate,
                spec.revive_rate, rng);
  return log;
}

ChurnLog make_flash_crowd(const graph::OverlayGraph& g, const TraceSpec& spec,
                          util::Rng& rng) {
  ChurnLog log(g);
  Membership members(g.size());
  const double crowd_at = spec.crowd_time * spec.duration;
  poisson_phase(log, members, spec, 0.0, crowd_at, spec.kill_rate,
                spec.revive_rate, rng);
  // The flash departure: one delta, crowd_fraction of the live population.
  const auto crowd = static_cast<std::size_t>(
      spec.crowd_fraction * static_cast<double>(members.alive_count()));
  kill_random_nodes(log, members, crowd, rng);
  commit_if_staged(log, crowd_at);
  // Recovery: departures stop, revivals trickle back.
  poisson_phase(log, members, spec, crowd_at, spec.duration, /*kill_rate=*/0.0,
                spec.revive_rate, rng);
  return log;
}

ChurnLog make_regional(const graph::OverlayGraph& g, const TraceSpec& spec,
                       util::Rng& rng) {
  ChurnLog log(g);
  const std::size_t n = g.size();
  util::require(spec.outages > 0, "make_trace: outages must be > 0");
  const metric::Space& space = g.space();
  const bool torus = !space.one_dimensional();
  auto shape = spec.region_shape;
  if (shape == TraceSpec::RegionShape::kAuto) {
    shape = torus ? TraceSpec::RegionShape::kRect : TraceSpec::RegionShape::kArc;
  }
  util::require(shape == TraceSpec::RegionShape::kArc || torus,
                "make_trace: 2-D region shapes (rect, L1 ball) need a torus space");
  std::size_t target = static_cast<std::size_t>(
      spec.region_fraction * static_cast<double>(n));
  target = std::max<std::size_t>(1, std::min(target, n - kAliveFloor));
  const std::size_t max_kills = n - kAliveFloor;
  const double gap = spec.duration / static_cast<double>(spec.outages);

  // Nodes actually killed by the current outage. 2-D shapes collect them
  // explicitly: a wrapped enumeration can alias (revisit a lattice point on
  // a side smaller than the footprint) and a sparse overlay can leave grid
  // points unoccupied, so the revive batch must mirror the shadow state, not
  // the nominal footprint.
  std::vector<NodeId> killed;
  const auto try_kill = [&](metric::Point p) {
    if (killed.size() >= max_kills) return;
    const NodeId u = g.node_at(p);
    if (u == graph::kInvalidNode) return;
    if (!log.shadow().node_alive(u)) return;  // aliased revisit
    log.kill_node(u);
    killed.push_back(u);
  };

  for (std::size_t k = 0; k < spec.outages; ++k) {
    const double start = gap * static_cast<double>(k);
    killed.clear();
    switch (shape) {
      case TraceSpec::RegionShape::kAuto:  // resolved above; not reachable
      case TraceSpec::RegionShape::kArc: {
        // Node order equals position order on a 1-D space, so a contiguous
        // id arc is a contiguous region of the metric (wrapping on a ring).
        const auto base = static_cast<std::size_t>(rng.next_below(n));
        for (std::size_t i = 0; i < target && killed.size() < max_kills; ++i) {
          const auto u = static_cast<NodeId>((base + i) % n);
          log.kill_node(u);
          killed.push_back(u);
        }
        break;
      }
      case TraceSpec::RegionShape::kRect: {
        // A ~square w x h block of lattice coordinates around a random
        // anchor, sized to the target node count — the 2-D analogue of the
        // arc: one cloud region, both axes wrap.
        const auto side = static_cast<std::size_t>(space.side());
        std::size_t w = static_cast<std::size_t>(
            std::sqrt(static_cast<double>(target)) + 0.5);
        w = std::max<std::size_t>(1, std::min(w, side));
        std::size_t h = (target + w - 1) / w;
        h = std::max<std::size_t>(1, std::min(h, side));
        const auto r0 = static_cast<std::int64_t>(rng.next_below(side));
        const auto c0 = static_cast<std::int64_t>(rng.next_below(side));
        for (std::size_t dr = 0; dr < h; ++dr) {
          for (std::size_t dc = 0; dc < w; ++dc) {
            try_kill(space.at(r0 + static_cast<std::int64_t>(dr),
                              c0 + static_cast<std::int64_t>(dc)));
          }
        }
        break;
      }
      case TraceSpec::RegionShape::kL1Ball: {
        // The metric ball of the torus: every node within wrapped Manhattan
        // distance r of a random center, r chosen as the smallest radius
        // whose lattice ball (2r(r+1)+1 points) covers the target count.
        const auto side = static_cast<std::size_t>(space.side());
        std::int64_t r = 0;
        while (static_cast<std::size_t>(2 * r * (r + 1) + 1) < target) ++r;
        const auto r0 = static_cast<std::int64_t>(rng.next_below(side));
        const auto c0 = static_cast<std::int64_t>(rng.next_below(side));
        for (std::int64_t dr = -r; dr <= r; ++dr) {
          const std::int64_t reach = r - std::abs(dr);
          for (std::int64_t dc = -reach; dc <= reach; ++dc) {
            try_kill(space.at(r0 + dr, c0 + dc));
          }
        }
        break;
      }
    }
    commit_if_staged(log, start);
    for (const NodeId u : killed) log.revive_node(u);
    commit_if_staged(log, start + gap * 0.5);
  }
  return log;
}

ChurnLog make_adversarial(const graph::OverlayGraph& g, const TraceSpec& spec,
                          util::Rng& rng) {
  static_cast<void>(rng);  // hub ranking is deterministic; kept for API symmetry
  ChurnLog log(g);
  const std::size_t n = g.size();
  const std::size_t wave = std::max<std::size_t>(
      1, std::min(spec.wave_size, n - kAliveFloor));
  // Rank every node once; wave k rotates through the ranking so successive
  // waves decapitate fresh hubs instead of re-killing the same set.
  const auto ranked = high_degree_targets(g, n - kAliveFloor);
  std::size_t k = 0;
  for (double t = 0.0; t < spec.duration; t += spec.wave_period, ++k) {
    const std::size_t base = (k * wave) % ranked.size();
    for (std::size_t i = 0; i < wave; ++i) {
      log.kill_node(ranked[(base + i) % ranked.size()]);
    }
    commit_if_staged(log, t);
    for (std::size_t i = 0; i < wave; ++i) {
      log.revive_node(ranked[(base + i) % ranked.size()]);
    }
    commit_if_staged(log, t + spec.wave_period * 0.5);
  }
  return log;
}

ChurnLog make_link_flap(const graph::OverlayGraph& g, const TraceSpec& spec,
                        util::Rng& rng) {
  ChurnLog log(g);
  // All long-link (u, link_index) pairs — short ±1 links never fail (§4.3.3).
  std::vector<std::pair<NodeId, std::uint32_t>> longs;
  for (NodeId u = 0; u < g.size(); ++u) {
    for (std::size_t i = g.short_degree(u); i < g.out_degree(u); ++i) {
      longs.emplace_back(u, static_cast<std::uint32_t>(i));
    }
  }
  if (longs.empty()) return log;
  const auto per_batch = static_cast<std::size_t>(
      spec.flap_fraction * static_cast<double>(longs.size()));
  std::vector<std::pair<NodeId, std::uint32_t>> flapped;
  for (double t = spec.batch_interval; t <= spec.duration;
       t += spec.batch_interval) {
    for (const auto& [u, i] : flapped) log.revive_link(u, i);
    flapped.clear();
    // Draws with replacement; in-batch duplicates normalize away in the log,
    // so a batch flaps *up to* per_batch distinct links.
    for (std::size_t d = 0; d < per_batch; ++d) {
      const auto& [u, i] = longs[rng.next_below(longs.size())];
      log.kill_link(u, i);
      flapped.emplace_back(u, i);
    }
    commit_if_staged(log, t);
  }
  return log;
}

}  // namespace

const char* scenario_name(TraceSpec::Scenario s) noexcept {
  switch (s) {
    case TraceSpec::Scenario::kPoissonChurn:
      return "poisson_churn";
    case TraceSpec::Scenario::kFlashCrowd:
      return "flash_crowd";
    case TraceSpec::Scenario::kRegionalOutage:
      return "regional_outage";
    case TraceSpec::Scenario::kAdversarialWaves:
      return "adversarial_waves";
    case TraceSpec::Scenario::kLinkFlap:
      return "link_flap";
  }
  return "unknown";
}

TraceSpec default_spec(TraceSpec::Scenario s, double duration, std::size_t n) {
  TraceSpec spec;
  spec.scenario = s;
  spec.duration = duration;
  spec.batch_interval = std::max(duration / 200.0, 1e-3);
  // Background node churn: ~1e-4 events per node per ms, so any network size
  // loses (and regains) the same fraction over one trace.
  const double churn = static_cast<double>(n) * 1e-4;
  spec.kill_rate = churn;
  spec.revive_rate = churn;
  switch (s) {
    case TraceSpec::Scenario::kPoissonChurn:
      break;
    case TraceSpec::Scenario::kFlashCrowd:
      spec.kill_rate = churn / 4.0;  // calm background, then the mass exit
      spec.crowd_fraction = 0.25;
      spec.crowd_time = 0.25;
      break;
    case TraceSpec::Scenario::kRegionalOutage:
      spec.region_fraction = 0.1;
      spec.outages = 4;
      break;
    case TraceSpec::Scenario::kAdversarialWaves:
      spec.wave_size = std::max<std::size_t>(8, n / 256);
      spec.wave_period = duration / 8.0;
      break;
    case TraceSpec::Scenario::kLinkFlap:
      spec.flap_fraction = 0.05;
      break;
  }
  return spec;
}

ChurnLog make_trace(const graph::OverlayGraph& g, const TraceSpec& spec,
                    util::Rng& rng) {
  util::require(g.size() > kAliveFloor, "make_trace: graph too small to churn");
  util::require(util::finite_non_negative(spec.duration),
                "make_trace: duration must be finite and >= 0");
  require_cadence(spec.duration, spec.batch_interval,
                  "make_trace: batch_interval must be finite, > 0 and at "
                  "least duration / kMaxTraceSteps");
  if (spec.scenario == TraceSpec::Scenario::kAdversarialWaves) {
    require_cadence(spec.duration, spec.wave_period,
                    "make_trace: wave_period must be finite, > 0 and at "
                    "least duration / kMaxTraceSteps");
  }
  // util::poisson_sample(inf) never returns, so the rates must be finite.
  util::require(util::finite_non_negative(spec.kill_rate) &&
                    util::finite_non_negative(spec.revive_rate),
                "make_trace: rates must be finite and >= 0");
  util::require(spec.crowd_fraction >= 0.0 && spec.crowd_fraction <= 1.0,
                "make_trace: crowd_fraction must be in [0,1]");
  util::require(spec.crowd_time >= 0.0 && spec.crowd_time <= 1.0,
                "make_trace: crowd_time must be in [0,1]");
  util::require(spec.region_fraction >= 0.0 && spec.region_fraction <= 1.0,
                "make_trace: region_fraction must be in [0,1]");
  util::require(spec.flap_fraction >= 0.0 && spec.flap_fraction <= 1.0,
                "make_trace: flap_fraction must be in [0,1]");
  switch (spec.scenario) {
    case TraceSpec::Scenario::kPoissonChurn:
      return make_poisson(g, spec, rng);
    case TraceSpec::Scenario::kFlashCrowd:
      return make_flash_crowd(g, spec, rng);
    case TraceSpec::Scenario::kRegionalOutage:
      return make_regional(g, spec, rng);
    case TraceSpec::Scenario::kAdversarialWaves:
      return make_adversarial(g, spec, rng);
    case TraceSpec::Scenario::kLinkFlap:
      return make_link_flap(g, spec, rng);
  }
  util::require(false, "make_trace: unknown scenario");
  return ChurnLog(g);  // unreachable
}

std::vector<graph::NodeId> high_degree_targets(const graph::OverlayGraph& g,
                                               std::size_t k) {
  const auto in = g.in_degrees();
  std::vector<NodeId> ids(g.size());
  std::iota(ids.begin(), ids.end(), NodeId{0});
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k),
                    ids.end(), [&](NodeId a, NodeId b) {
                      return in[a] != in[b] ? in[a] > in[b] : a < b;
                    });
  ids.resize(k);
  return ids;
}

failure::ByzantineSet hub_adversary(const graph::OverlayGraph& g, std::size_t k) {
  return failure::ByzantineSet::of(g, high_degree_targets(g, k));
}

std::vector<failure::ByzantineDelta> make_byzantine_waves(
    const graph::OverlayGraph& g, const ByzantineWaveSpec& spec) {
  util::require(g.size() > kAliveFloor,
                "make_byzantine_waves: graph too small");
  util::require(util::finite_non_negative(spec.duration),
                "make_byzantine_waves: duration must be finite and >= 0");
  require_cadence(spec.duration, spec.wave_period,
                  "make_byzantine_waves: wave_period must be finite, > 0 and "
                  "at least duration / kMaxTraceSteps");
  const std::size_t n = g.size();
  const std::size_t wave =
      std::max<std::size_t>(1, std::min(spec.wave_size, n - kAliveFloor));
  // Same rotation rhythm as kAdversarialWaves (wave k starts at rank
  // k·wave + hub_offset), so a composed trace built from one spec keeps the
  // crash and corruption waves aimed at predictable, disjoint hub tiers.
  const auto ranked = high_degree_targets(g, n - kAliveFloor);
  std::vector<failure::ByzantineDelta> deltas;
  std::size_t k = 0;
  for (double t = 0.0; t < spec.duration; t += spec.wave_period, ++k) {
    failure::ByzantineDelta corrupt;
    corrupt.when = t;
    const std::size_t base = (k * wave + spec.hub_offset) % ranked.size();
    for (std::size_t i = 0; i < wave; ++i) {
      corrupt.corrupts.push_back(ranked[(base + i) % ranked.size()]);
    }
    failure::ByzantineDelta heal;
    heal.when = t + spec.wave_period * 0.5;
    heal.heals = corrupt.corrupts;
    // Every wave heals before the next corrupts (half-period < period), so
    // applying the deltas in order is always normalized: membership returns
    // to empty between waves even when the rotating windows overlap.
    deltas.push_back(std::move(corrupt));
    deltas.push_back(std::move(heal));
  }
  return deltas;
}

}  // namespace p2p::churn
