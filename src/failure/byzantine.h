// Byzantine failure model (§7: "study the security properties of greedy
// routing schemes to see how they can be adapted to provide desirable
// properties like ... robustness against Byzantine failures").
//
// A Byzantine node participates in the protocol but misbehaves when asked to
// forward a message:
//  * kDrop     — silently discards it (blackhole);
//  * kMisroute — forwards it to a uniformly random neighbour instead of the
//    greedy choice, wasting the sender's progress (wormhole/detour attack).
//
// Crash-faulty nodes are visibly dead; Byzantine nodes look healthy, so a
// greedy sender cannot route around them proactively. The countermeasures in
// core/secure_router.h are redundant routing over diverse first hops and
// reputation-weighted candidate selection (failure/reputation.h).
//
// Membership is time-varying: an adversary corrupts and heals nodes as the
// trace plays (churn::make_byzantine_waves aims these at in-degree hubs). A
// ByzantineDelta is the Byzantine twin of failure::FailureDelta — a
// normalized epoch-stamped batch of corrupt/heal flips — and
// ByzantineSet::apply/revert move an epoch cursor exactly the way
// FailureView::apply/revert do, so crash churn and Byzantine churn replay
// through one discrete-event queue with a shared notion of time.
//
// Flags are keyed by node id. The graph is immutable (overlay_graph.h), so
// its node range, and with it every flag, stays valid for the set's life.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::failure {

enum class ByzantineBehavior { kDrop, kMisroute };

/// One epoch's batch of Byzantine membership flips, stamped with its virtual
/// time (sim::SimTime milliseconds). Normalized like FailureDelta: every
/// listed node is a real state change (no corrupting the corrupt, no healing
/// the honest), making apply and revert exact inverses.
struct ByzantineDelta {
  double when = 0.0;
  std::vector<graph::NodeId> corrupts;
  std::vector<graph::NodeId> heals;

  [[nodiscard]] bool empty() const noexcept {
    return corrupts.empty() && heals.empty();
  }
  [[nodiscard]] std::size_t change_count() const noexcept {
    return corrupts.size() + heals.size();
  }
};

/// The (adversary-chosen, time-varying) set of Byzantine nodes over one graph.
class ByzantineSet {
 public:
  /// No Byzantine nodes.
  [[nodiscard]] static ByzantineSet none(const graph::OverlayGraph& g);

  /// Each node turns Byzantine independently with probability `fraction`.
  [[nodiscard]] static ByzantineSet random(const graph::OverlayGraph& g,
                                           double fraction, util::Rng& rng);

  /// An explicit set of corrupted nodes (targeted placement). Ids are
  /// validated against the graph (throws std::out_of_range); duplicates are
  /// idempotent.
  [[nodiscard]] static ByzantineSet of(const graph::OverlayGraph& g,
                                       const std::vector<graph::NodeId>& nodes);

  [[nodiscard]] bool is_byzantine(graph::NodeId u) const noexcept {
    return !flags_.empty() && flags_[u] != 0;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept { return *graph_; }

  /// Idempotent single-node flips (manual injection; leave epoch() alone).
  /// Throw std::out_of_range for ids outside the graph.
  void corrupt(graph::NodeId u);
  void heal(graph::NodeId u);

  /// Delta-log cursor: how many ByzantineDeltas have been applied on top of
  /// the membership this set was created with.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Applies one normalized delta batch: corrupts then heals the listed
  /// nodes, advances epoch() by one. O(changed nodes). Throws if any listed
  /// change is a no-op (the set and the schedule are out of sync) or an id
  /// is out of range.
  void apply(const ByzantineDelta& delta);

  /// Exact inverse of apply(delta): rewinds epoch() by one. Preconditions as
  /// apply, plus epoch() > 0 and `delta` being the batch that produced the
  /// current epoch.
  void revert(const ByzantineDelta& delta);

 private:
  explicit ByzantineSet(const graph::OverlayGraph& g) : graph_(&g) {}

  /// Non-idempotent single flips used by apply/revert to enforce
  /// normalization (flipping to the current state throws).
  void corrupt_checked(graph::NodeId u, const char* what);
  void heal_checked(graph::NodeId u, const char* what);

  const graph::OverlayGraph* graph_;
  std::vector<std::uint8_t> flags_;
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 0;  // delta cursor (see apply/revert)
};

}  // namespace p2p::failure
