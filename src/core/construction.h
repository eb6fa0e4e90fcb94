// Dynamic construction and maintenance of the overlay (§5).
//
// The invariant to maintain: at all times, the probability that node u has a
// long link to node v is Ω(1/d(u,v)). The heuristic achieves this without
// global coordination:
//
//  * A joining node v draws its ℓ outgoing links from the inverse power-law
//    distribution; a draw that lands on an unoccupied grid point snaps to
//    the closest occupied one (the "basin of attraction" argument of §5).
//  * v then estimates how many incoming links it "should" have — a
//    Poisson(ℓ) draw — and asks that many existing nodes (chosen by the same
//    distribution) for an incoming link.
//  * An asked node u with links at distances d_1..d_k accepts with
//    probability p_{k+1} / Σ_{j=1..k+1} p_j (p_i = 1/d_i, p_{k+1} = 1/d(u,v))
//    and redirects an existing link chosen with probability p_i / Σ_{j=1..k} p_j
//    — the Sarshar–Roychowdhury rule generalised to multiple links, which
//    makes the net change in u's link distribution exactly what the invariant
//    demands (the displayed equation at the end of §5).
//  * The alternative strategy studied in §5 — redirect the *oldest* link —
//    and a no-redirect ablation are selectable via ReplacePolicy.
//
// Departures: leave() lets every in-neighbour immediately redraw the lost
// link; crash() leaves dangling links behind that a later repair() pass (or
// the next routing failures) discovers — §5's "the same heuristic can be
// used for regeneration of links when a node crashes".
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "graph/link_distribution.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/rng.h"

namespace p2p::core {

/// Which existing link an asked node redirects to the newcomer.
enum class ReplacePolicy {
  kPowerLaw,  ///< victim chosen with probability p_i / Σp_j (§5 main rule)
  kOldest,    ///< victim is the oldest link (§5 alternative)
  kNever      ///< never redirect (ablation: join out-links only)
};

/// Knobs of the §5 heuristic.
struct ConstructionConfig {
  std::size_t long_links = 1;  ///< ℓ, outgoing long links per node
  double exponent = 1.0;       ///< inverse power-law exponent
  ReplacePolicy replace_policy = ReplacePolicy::kPowerLaw;
};

/// A membership-aware overlay maintained incrementally by the §5 heuristic.
///
/// Grid positions of the space may be occupied or vacant; join/leave/crash
/// mutate membership and links. snapshot() exports the current overlay as a
/// compact OverlayGraph for use with Router/FailureView.
class DynamicOverlay {
 public:
  /// Preconditions: space is a line or a ring (the §5 heuristic walks an
  /// ordered member set), space.size() >= 2, cfg.long_links >= 1,
  /// exponent >= 0.
  DynamicOverlay(metric::Space space, ConstructionConfig cfg);

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }
  [[nodiscard]] const ConstructionConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return members_.size(); }
  [[nodiscard]] bool occupied(metric::Point p) const noexcept;

  /// Adds a node at the vacant position p and runs the §5 join protocol.
  /// Throws std::invalid_argument if p is occupied or outside the space.
  void join(metric::Point p, util::Rng& rng);

  /// Graceful departure: every in-neighbour redraws its lost link, then the
  /// node's own links are dismantled. Throws if p is not occupied.
  void leave(metric::Point p, util::Rng& rng);

  /// Abrupt failure: the node vanishes; links *to* it dangle until repair().
  /// Throws if p is not occupied.
  void crash(metric::Point p);

  /// Redraws every dangling long link (targets that no longer exist).
  /// Returns the number of links repaired.
  std::size_t repair(util::Rng& rng);

  /// Redraws only the dangling long links of the node at p (the localized
  /// repair a routing node performs when a search discovers the damage).
  /// Returns the number of links repaired. Throws if p is not occupied.
  std::size_t repair_node(metric::Point p, util::Rng& rng);

  /// Number of long links currently pointing at absent targets.
  [[nodiscard]] std::size_t dangling_count() const noexcept;

  /// Occupied position closest to p (ties to the lower position), excluding
  /// `exclude` (pass -1 to exclude nothing). Returns -1 when no member
  /// qualifies.
  [[nodiscard]] metric::Point nearest_member(metric::Point p,
                                             metric::Point exclude) const noexcept;

  /// Next occupied position after p in increasing order (wrapping on a
  /// ring); -1 when none exists. p itself need not be occupied.
  [[nodiscard]] metric::Point successor(metric::Point p) const noexcept;

  /// Previous occupied position before p (wrapping on a ring); -1 when none.
  [[nodiscard]] metric::Point predecessor(metric::Point p) const noexcept;

  /// All occupied positions in increasing order.
  [[nodiscard]] std::vector<metric::Point> members() const {
    return {members_.begin(), members_.end()};
  }

  /// Current long-link targets of the node at p (dangling ones included).
  [[nodiscard]] std::vector<metric::Point> long_links_of(metric::Point p) const;

  /// Lengths of all live long links (Figure 5's measurement).
  [[nodiscard]] std::vector<metric::Distance> long_link_lengths() const;

  /// Exports a compact OverlayGraph over the current members: short links
  /// to nearest present neighbours, live long links as stored (dangling
  /// links are dropped). With `bidirectional`, reverse long links are added
  /// (see graph::BuildSpec::bidirectional).
  [[nodiscard]] graph::OverlayGraph snapshot(bool bidirectional = false) const;

 private:
  struct LinkRecord {
    metric::Point target;
    std::uint64_t birth;  // global counter; smaller = older
  };

  /// Draws a power-law target from `from` and snaps to the nearest member,
  /// excluding `exclude` and `from` itself. Returns -1 when no member exists.
  [[nodiscard]] metric::Point sample_member(util::Rng& rng, metric::Point from,
                                            metric::Point exclude) const;

  void add_long_link(metric::Point from, metric::Point to);
  void remove_long_link_at(metric::Point from, std::size_t index);
  void erase_in_record(metric::Point target, metric::Point from);

  /// §5 redirect decision at node u for newcomer v; returns true when a
  /// link was redirected (or added, if u is below its design degree).
  bool offer_in_link(metric::Point u, metric::Point v, util::Rng& rng);

  metric::Space space_;
  ConstructionConfig config_;
  graph::PowerLawLinkSampler sampler_;
  std::set<metric::Point> members_;
  std::vector<std::vector<LinkRecord>> out_links_;   // indexed by grid position
  std::vector<std::vector<metric::Point>> in_links_;  // reverse index
  std::uint64_t birth_counter_ = 0;
};

}  // namespace p2p::core
