#include "failure/failure_model.h"

#include "util/require.h"

namespace p2p::failure {

FailureView::FailureView(const graph::OverlayGraph& g) : graph_(&g) {}

FailureView FailureView::all_alive(const graph::OverlayGraph& g) {
  FailureView view(g);
  view.alive_count_ = g.size();
  return view;
}

FailureView FailureView::with_node_failures(const graph::OverlayGraph& g, double p_fail,
                                            util::Rng& rng) {
  util::require(p_fail >= 0.0 && p_fail <= 1.0,
                "with_node_failures: p_fail must be in [0,1]");
  FailureView view(g);
  view.alive_count_ = g.size();
  view.ensure_node_bits();
  for (graph::NodeId u = 0; u < g.size(); ++u) {
    if (rng.next_bool(p_fail)) {
      set_bit(view.node_dead_, u);
      --view.alive_count_;
    }
  }
  // A draw that killed nobody keeps the all-alive fast path.
  if (view.alive_count_ == g.size()) {
    view.node_dead_.clear();
  }
  return view;
}

FailureView FailureView::with_link_failures(const graph::OverlayGraph& g,
                                            double p_present, util::Rng& rng) {
  util::require(p_present >= 0.0 && p_present <= 1.0,
                "with_link_failures: p_present must be in [0,1]");
  FailureView view(g);
  view.alive_count_ = g.size();
  view.link_slots_ = g.edge_slots();
  // +1: guard word so link_live_word's two-word window stays in bounds.
  view.link_dead_.assign(words_for(view.link_slots_) + 1, 0);
  bool any_dead = false;
  for (graph::NodeId u = 0; u < g.size(); ++u) {
    const std::size_t base = g.edge_base(u);
    const std::size_t degree = g.out_degree(u);
    for (std::size_t i = g.short_degree(u); i < degree; ++i) {
      if (!rng.next_bool(p_present)) {
        set_bit(view.link_dead_, base + i);
        any_dead = true;
      }
    }
  }
  if (!any_dead) view.link_dead_.clear();
  return view;
}

graph::NodeId FailureView::random_alive(util::Rng& rng) const {
  util::require(alive_count_ > 0, "random_alive: no alive nodes");
  // Rejection sampling is O(n/alive) expected; fall back to a scan when the
  // alive fraction is tiny so the draw stays bounded.
  const std::size_t n = graph_->size();
  if (alive_count_ * 8 >= n) {
    for (;;) {
      const auto u = static_cast<graph::NodeId>(rng.next_below(n));
      if (node_alive(u)) return u;
    }
  }
  std::size_t index = static_cast<std::size_t>(rng.next_below(alive_count_));
  for (graph::NodeId u = 0; u < n; ++u) {
    if (node_alive(u)) {
      if (index == 0) return u;
      --index;
    }
  }
  return graph::kInvalidNode;  // unreachable: alive_count_ > 0
}

void FailureView::kill_node(graph::NodeId u) {
  util::require_in_range(u < graph_->size(), "kill_node: node out of range");
  ensure_node_bits();
  if (!test_bit(node_dead_, u)) {
    set_bit(node_dead_, u);
    --alive_count_;
  }
}

void FailureView::revive_node(graph::NodeId u) {
  util::require_in_range(u < graph_->size(), "revive_node: node out of range");
  if (node_dead_.empty()) return;
  if (test_bit(node_dead_, u)) {
    reset_bit(node_dead_, u);
    ++alive_count_;
  }
}

void FailureView::ensure_node_bits() {
  if (!node_dead_.empty()) return;
  node_dead_.assign(words_for(graph_->size()), 0);
}

void FailureView::ensure_link_bits() {
  if (!link_dead_.empty()) return;
  // +1: guard word so link_live_word's two-word window stays in bounds.
  link_slots_ = graph_->edge_slots();
  link_dead_.assign(words_for(link_slots_) + 1, 0);
}

void FailureView::kill_link(graph::NodeId u, std::size_t link_index) {
  util::require_in_range(u < graph_->size(), "kill_link: node out of range");
  util::require_in_range(link_index < graph_->out_degree(u),
                         "kill_link: link index out of range");
  ensure_link_bits();
  set_bit(link_dead_, graph_->edge_base(u) + link_index);
}

void FailureView::revive_link(graph::NodeId u, std::size_t link_index) {
  util::require_in_range(u < graph_->size(), "revive_link: node out of range");
  util::require_in_range(link_index < graph_->out_degree(u),
                         "revive_link: link index out of range");
  if (link_dead_.empty()) return;
  reset_bit(link_dead_, graph_->edge_base(u) + link_index);
}

void FailureView::kill_link_slot(std::size_t slot) {
  util::require_in_range(slot < graph_->edge_slots(),
                         "kill_link_slot: slot out of range");
  ensure_link_bits();
  set_bit(link_dead_, slot);
}

void FailureView::revive_link_slot(std::size_t slot) {
  util::require_in_range(slot < graph_->edge_slots(),
                         "revive_link_slot: slot out of range");
  if (link_dead_.empty()) return;
  reset_bit(link_dead_, slot);
}

void FailureView::apply(const FailureDelta& delta) {
  if (!delta.link_kills.empty() || !delta.link_revives.empty()) ensure_link_bits();
  if (!delta.node_kills.empty()) ensure_node_bits();
  for (const graph::NodeId u : delta.node_kills) {
    util::require_in_range(u < graph_->size(), "apply: node out of range");
    util::require(!test_bit(node_dead_, u),
                  "apply: kill of a dead node (delta not normalized)");
    set_bit(node_dead_, u);
    --alive_count_;
  }
  for (const graph::NodeId u : delta.node_revives) {
    util::require_in_range(u < graph_->size(), "apply: node out of range");
    util::require(!node_dead_.empty() && test_bit(node_dead_, u),
                  "apply: revive of a live node (delta not normalized)");
    reset_bit(node_dead_, u);
    ++alive_count_;
  }
  for (const std::uint32_t slot : delta.link_kills) {
    util::require_in_range(slot < link_slots_, "apply: link slot out of range");
    util::require(!test_bit(link_dead_, slot),
                  "apply: kill of a dead link (delta not normalized)");
    set_bit(link_dead_, slot);
  }
  for (const std::uint32_t slot : delta.link_revives) {
    util::require_in_range(slot < link_slots_, "apply: link slot out of range");
    util::require(test_bit(link_dead_, slot),
                  "apply: revive of a live link (delta not normalized)");
    reset_bit(link_dead_, slot);
  }
  ++epoch_;
}

void FailureView::revert(const FailureDelta& delta) {
  util::require(epoch_ > 0, "revert: already at epoch 0");
  // The inverse batch: what apply killed gets revived and vice versa. The
  // normalization requires mirror apply's, so a revert with the wrong delta
  // (or out of order) fails loudly instead of silently corrupting the view.
  for (const graph::NodeId u : delta.node_kills) {
    util::require_in_range(u < graph_->size(), "revert: node out of range");
    util::require(!node_dead_.empty() && test_bit(node_dead_, u),
                  "revert: node not dead (wrong delta for this epoch)");
    reset_bit(node_dead_, u);
    ++alive_count_;
  }
  for (const graph::NodeId u : delta.node_revives) {
    util::require_in_range(u < graph_->size(), "revert: node out of range");
    ensure_node_bits();
    util::require(!test_bit(node_dead_, u),
                  "revert: node not alive (wrong delta for this epoch)");
    set_bit(node_dead_, u);
    --alive_count_;
  }
  if (!delta.link_kills.empty() || !delta.link_revives.empty()) ensure_link_bits();
  for (const std::uint32_t slot : delta.link_kills) {
    util::require_in_range(slot < link_slots_, "revert: link slot out of range");
    util::require(test_bit(link_dead_, slot),
                  "revert: link not dead (wrong delta for this epoch)");
    reset_bit(link_dead_, slot);
  }
  for (const std::uint32_t slot : delta.link_revives) {
    util::require_in_range(slot < link_slots_, "revert: link slot out of range");
    util::require(!test_bit(link_dead_, slot),
                  "revert: link not alive (wrong delta for this epoch)");
    set_bit(link_dead_, slot);
  }
  --epoch_;
}

}  // namespace p2p::failure
