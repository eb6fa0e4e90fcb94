// Per-neighbour reputation from observed route outcomes (ROADMAP item 2:
// "per-neighbor reputation scores updated from observed route outcomes ...
// folded into candidate selection as a tie-break or penalty mask").
//
// Crash failures are visible (FailureView); Byzantine misbehaviour is not —
// a blackhole or misrouting node looks alive to every liveness probe. What
// *is* locally observable is how searches fare: a walk that dies at a hop, a
// hop that destroys greedy progress, a search that times out. ReputationTable
// accumulates those observations into a per-node penalty score and exposes
// the derived binary verdict as a byte sideband (`trusted_bytes()`, 1 =
// trusted): the masked AVX-512 candidate scan gathers it per 16-candidate
// group, one 4-byte load per lane at the candidate's id, right after it
// gathers node liveness from FailureView::node_dead_words(), so distrust
// rides the existing kernel shape, and the scalar selection path reads the
// same byte — the two stay bit-identical by construction.
//
// Graceful degradation, not blacklisting: penalties saturate at a cap and
// decay multiplicatively over epochs (`decay_epoch`), so a node that was
// corrupted and later healed — or an innocent that absorbed a few misrouted
// walks — recovers trust after a bounded quiet period. Distrust only ever
// *biases* selection; the SecureRouter falls back to distrusted candidates
// when no trusted one exists, so a mostly-distrusted neighbourhood degrades
// to plain greedy instead of going dark.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/overlay_graph.h"

namespace p2p::failure {

/// A locally observable search outcome attributed to one node.
enum class Observation : std::uint8_t {
  kDelivered,  ///< the node lay on a walk that reached its target (reward)
  kDiedAtHop,  ///< a walk was handed to the node and never seen again
  kRegressed,  ///< the node forwarded a message *away* from its goal
  kTimedOut,   ///< a walk's TTL expired while the node held the message
};

/// Scoring knobs. Penalties accumulate per node; a node is distrusted while
/// its penalty is at or above `distrust_threshold`.
struct ReputationConfig {
  /// kDiedAtHop — strong but ambiguous (an innocent crash also explains it).
  double penalty_died = 3.0;
  /// kRegressed — certain evidence: honest forwarding is strictly closer, so
  /// only a misrouting node can move a message away from its goal.
  double penalty_regressed = 3.0;
  double penalty_timeout = 0.25;  ///< kTimedOut — weak (end node is often innocent)
  double reward_delivered = 0.5;  ///< kDelivered — subtracted, floor 0
  double distrust_threshold = 4.0;
  /// Multiplier applied to every penalty by decay_epoch(); 0.5 halves the
  /// grudge per decay epoch so healed nodes recover in O(log cap) epochs.
  double decay = 0.5;
  /// Penalty saturation: bounds recovery time for long-lived attackers.
  double max_penalty = 16.0;
};

/// Penalty scores + derived distrust sideband over one graph's nodes.
class ReputationTable {
 public:
  /// `g` must outlive the table. Starts with every node trusted, penalty 0.
  explicit ReputationTable(const graph::OverlayGraph& g,
                           ReputationConfig config = {});

  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const ReputationConfig& config() const noexcept { return config_; }

  /// Folds one observation into u's penalty and re-derives its trust byte.
  void record(graph::NodeId u, Observation what);

  /// One reputation epoch: multiplies every non-zero penalty by
  /// config().decay (values below a fixed epsilon snap to 0) and re-derives
  /// trust. O(nodes with non-zero penalty), not O(n).
  void decay_epoch();

  /// Forgets everything: all penalties 0, every node trusted.
  void reset();

  [[nodiscard]] double penalty(graph::NodeId u) const noexcept {
    assert(u < penalty_.size());
    return penalty_[u];
  }

  /// The binary verdict the selection mask applies. Reads the sideband byte,
  /// so scalar selection and the SIMD gather agree by construction.
  [[nodiscard]] bool trusted(graph::NodeId u) const noexcept {
    assert(u < graph_->size());
    return trusted_byte_[u] != 0;
  }

  /// Byte-addressable trust sideband: bytes[u] == 1 iff u is trusted. Padded
  /// past size() (the SIMD gather loads 4 bytes per lane at arbitrary node
  /// offsets). Always valid.
  [[nodiscard]] const std::uint8_t* trusted_bytes() const noexcept {
    return trusted_byte_.data();
  }

  /// Number of currently distrusted nodes — the routers' fast-path gate:
  /// while 0 the selection mask is a no-op and never dispatched.
  [[nodiscard]] std::size_t distrusted_count() const noexcept {
    return distrusted_count_;
  }

  /// Reputation epochs elapsed (decay_epoch() calls since construction/reset).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  /// Sets u's penalty and maintains the trust byte, the distrust count and
  /// the touched list (nodes with non-zero penalty, each listed once).
  void set_penalty(graph::NodeId u, double value);

  /// Decayed penalties below this snap to zero (drops the node from the
  /// touched list, keeping decay_epoch O(penalized)).
  static constexpr double kPenaltyEpsilon = 1.0 / 1024.0;
  /// Gather lanes read 4 bytes at trusted_byte_[v]; padding keeps the load
  /// in bounds for v = size()-1.
  static constexpr std::size_t kBytePad = 8;

  const graph::OverlayGraph* graph_;
  ReputationConfig config_;
  std::vector<double> penalty_;
  std::vector<std::uint8_t> trusted_byte_;  // 1 = trusted; padded past size()
  /// Nodes with penalty > 0 (unordered, no duplicates): decay_epoch's
  /// worklist. tracked_[u] mirrors membership.
  std::vector<graph::NodeId> touched_;
  std::vector<graph::NodeId> scratch_;  // decay_epoch worklist reuse
  std::vector<std::uint8_t> tracked_;
  std::size_t distrusted_count_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace p2p::failure
