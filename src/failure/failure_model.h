// Failure models over an overlay graph (§4.3.3–§4.3.4, §6).
//
// A FailureView is an immutable-graph overlay recording which nodes and which
// individual links are currently dead. Views are cheap relative to graph
// construction, so one built network can serve many failure draws (exactly
// how the paper's experiments run: "the network is set up afresh, and a
// fraction p of the nodes fail").
//
// Liveness is stored in packed 64-bit word bitsets — one bit per node and
// one bit per CSR link slot (keyed by OverlayGraph::edge_base(u) + i) — so
// the router's inner loop pays one shift-and-mask per query and the common
// all-alive case is a null check. The vectorized router reads the same bits:
// 64-link windows of the link set, and 32-bit words of the node set gathered
// per candidate, so no second (byte) copy of node liveness is kept. The
// graph is immutable (overlay_graph.h), so its slot numbering, and with it
// every link bit and every delta's slot, stays valid for the view's whole
// life.
//
// Views also carry an *epoch*: a cursor into a churn::ChurnLog delta log.
// apply(delta) / revert(delta) flip exactly the bits a FailureDelta lists —
// O(changed bits), the incremental alternative to an O(n) rebuild — and move
// the epoch forward/backward by one. Manual kill_/revive_ calls leave the
// epoch untouched (they are not part of any log).
//
// Three factory models:
//  * with_link_failures(p)  — each *long-distance* link is independently dead
//    with probability 1-p_present; ±1 links never fail (§4.3.3 assumes "the
//    links to the immediate neighbours are always present").
//  * with_node_failures(p)  — each node is dead independently with
//    probability p (§4.3.4.2 / §6).
//  * all_alive()            — the failure-free baseline.
//
// Binomial node presence (§4.3.4.1) is *not* a view: absent nodes never join
// the graph at all, so it lives in graph::GraphBuilder (BuildSpec::presence).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/overlay_graph.h"
#include "util/arena.h"
#include "util/rng.h"

namespace p2p::failure {

/// One epoch's batch of liveness flips, stamped with its virtual time.
///
/// A delta is *normalized*: every listed node/link is a real state change
/// relative to the epoch before it (no killing the dead, no reviving the
/// living), which makes apply and revert exact inverses. churn::ChurnLog is
/// the sanctioned producer; FailureView::apply/revert enforce normalization.
struct FailureDelta {
  /// Virtual time (sim::SimTime milliseconds) the batch takes effect.
  double when = 0.0;
  std::vector<graph::NodeId> node_kills;
  std::vector<graph::NodeId> node_revives;
  /// Flat CSR slots (OverlayGraph::edge_base(u) + link_index).
  std::vector<std::uint32_t> link_kills;
  std::vector<std::uint32_t> link_revives;

  [[nodiscard]] bool empty() const noexcept {
    return node_kills.empty() && node_revives.empty() && link_kills.empty() &&
           link_revives.empty();
  }
  [[nodiscard]] std::size_t change_count() const noexcept {
    return node_kills.size() + node_revives.size() + link_kills.size() +
           link_revives.size();
  }
};

/// Records node/link aliveness for one failure scenario over a fixed graph.
class FailureView {
 public:
  /// Everything alive.
  [[nodiscard]] static FailureView all_alive(const graph::OverlayGraph& g);

  /// Each node dead independently with probability `p_fail` in [0,1].
  [[nodiscard]] static FailureView with_node_failures(const graph::OverlayGraph& g,
                                                      double p_fail, util::Rng& rng);

  /// Each long link dead independently with probability 1 - `p_present`;
  /// short (immediate-neighbour) links always survive.
  [[nodiscard]] static FailureView with_link_failures(const graph::OverlayGraph& g,
                                                      double p_present, util::Rng& rng);

  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept { return *graph_; }

  /// True when no node has ever been marked dead (fast-path gate: when this
  /// and links_intact() hold, every hop is usable and the router can skip
  /// per-link queries entirely).
  [[nodiscard]] bool nodes_intact() const noexcept { return node_dead_.empty(); }

  /// True when no link has ever been marked dead.
  [[nodiscard]] bool links_intact() const noexcept { return link_dead_.empty(); }

  [[nodiscard]] bool node_alive(graph::NodeId u) const noexcept {
    return node_dead_.empty() || !test_bit(node_dead_, u);
  }

  /// Aliveness of the link at `link_index` within neighbors(u).
  [[nodiscard]] bool link_alive(graph::NodeId u, std::size_t link_index) const noexcept {
    return link_dead_.empty() ||
           !test_bit(link_dead_, graph_->edge_base(u) + link_index);
  }

  /// Aliveness of the link in flat CSR slot `slot` (= edge_base(u) + i).
  /// The router's inner loop uses this to skip the per-node base lookup.
  [[nodiscard]] bool link_alive_at(std::size_t slot) const noexcept {
    return link_dead_.empty() || !test_bit(link_dead_, slot);
  }

  /// True when the hop u -> neighbors(u)[link_index] is usable: the link is
  /// up and the far node is alive.
  [[nodiscard]] bool hop_usable(graph::NodeId u, std::size_t link_index) const noexcept {
    return link_alive(u, link_index) &&
           node_alive(graph_->neighbors(u)[link_index]);
  }

  /// 64 link-liveness bits starting at flat CSR slot `first`: bit k is set
  /// iff slot first+k is alive. Link slots are per-node contiguous
  /// (edge_base(u)+i), so a node's whole <=64-link slice is one call and the
  /// SIMD candidate scan refetches every 64 links; bits at or past
  /// edge_slots() read as alive (a guard word keeps the two-word window in
  /// bounds). Precondition: !links_intact() and first < edge_slots().
  [[nodiscard]] std::uint64_t link_live_word(std::size_t first) const noexcept {
    assert(!link_dead_.empty() && first < link_slots_);
    const std::size_t w = first >> 6;
    const unsigned sh = static_cast<unsigned>(first & 63);
    std::uint64_t dead = link_dead_[w] >> sh;
    if (sh != 0) dead |= link_dead_[w + 1] << (64 - sh);
    return ~dead;
  }

  /// The node-dead bitset: bit u of the little-endian word array is 1 iff
  /// node u is dead; nullptr while nodes_intact(). The SIMD candidate scan
  /// gathers the 32-bit word u >> 5 and tests its bit u & 31, so a whole
  /// 2^19-node view is 64 KiB of cache-resident words.
  [[nodiscard]] const std::uint64_t* node_dead_words() const noexcept {
    return node_dead_.empty() ? nullptr : node_dead_.data();
  }

  [[nodiscard]] std::size_t alive_count() const noexcept { return alive_count_; }

  /// Draws a uniformly random alive node. Precondition: alive_count() > 0.
  [[nodiscard]] graph::NodeId random_alive(util::Rng& rng) const;

  /// Manual failure injection (tests, churn simulations). Leaves epoch()
  /// untouched.
  void kill_node(graph::NodeId u);
  void revive_node(graph::NodeId u);
  void kill_link(graph::NodeId u, std::size_t link_index);
  void revive_link(graph::NodeId u, std::size_t link_index);
  /// Same, keyed by flat CSR slot (= edge_base(u) + link_index).
  void kill_link_slot(std::size_t slot);
  void revive_link_slot(std::size_t slot);

  /// Delta-log cursor: how many FailureDeltas have been applied on top of
  /// the state this view was created with. See churn::ChurnLog.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Applies one normalized delta batch: kills the listed nodes/links,
  /// revives the listed nodes/links, advances epoch() by one. O(changed
  /// bits). Throws if the delta is not normalized against the current state
  /// (a listed change that is a no-op means the view and the log are out of
  /// sync).
  void apply(const FailureDelta& delta);

  /// Exact inverse of apply(delta): rewinds epoch() by one. Preconditions as
  /// apply, plus epoch() > 0 and `delta` being the batch that produced the
  /// current epoch.
  void revert(const FailureDelta& delta);

  /// Resident bytes of the view's bitsets (capacity-based — the HpVector
  /// allocator maps >= 1 MiB blocks on whole huge pages).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return node_dead_.capacity() * sizeof(std::uint64_t) +
           link_dead_.capacity() * sizeof(std::uint64_t);
  }

 private:
  explicit FailureView(const graph::OverlayGraph& g);

  /// Bitset word storage: huge-page-backed once past the allocator's mmap
  /// threshold — at 1e8 nodes the node bitset alone is 12.5 MB and the link
  /// bitset ~350 MB, exactly the TLB-hostile sizes THP exists for.
  using BitWords = util::HpVector<std::uint64_t>;

  [[nodiscard]] static bool test_bit(const BitWords& bits,
                                     std::size_t i) noexcept {
    return (bits[i >> 6] >> (i & 63)) & 1u;
  }
  static void set_bit(BitWords& bits, std::size_t i) noexcept {
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  static void reset_bit(BitWords& bits, std::size_t i) noexcept {
    bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  static std::size_t words_for(std::size_t bits) noexcept { return (bits + 63) / 64; }

  /// Allocates the link bitset on first link death.
  void ensure_link_bits();

  /// Allocates node_dead_ on first node death.
  void ensure_node_bits();

  const graph::OverlayGraph* graph_;
  BitWords node_dead_;  // packed, 1 = dead; empty = all alive
  BitWords link_dead_;  // packed over CSR slots (+ guard word)
  std::size_t link_slots_ = 0;  // edge_slots() when link_dead_ was allocated
  std::size_t alive_count_ = 0;
  std::uint64_t epoch_ = 0;  // delta-log cursor (see apply/revert)
};

}  // namespace p2p::failure
