#include "failure/byzantine.h"

#include "util/require.h"

namespace p2p::failure {

ByzantineSet ByzantineSet::none(const graph::OverlayGraph& g) { return ByzantineSet(g); }

ByzantineSet ByzantineSet::random(const graph::OverlayGraph& g, double fraction,
                                  util::Rng& rng) {
  util::require(fraction >= 0.0 && fraction <= 1.0,
                "ByzantineSet::random: fraction must be in [0,1]");
  ByzantineSet set(g);
  set.flags_.assign(g.size(), 0);
  for (graph::NodeId u = 0; u < g.size(); ++u) {
    if (rng.next_bool(fraction)) {
      set.flags_[u] = 1;
      ++set.count_;
    }
  }
  return set;
}

ByzantineSet ByzantineSet::of(const graph::OverlayGraph& g,
                              const std::vector<graph::NodeId>& nodes) {
  ByzantineSet set(g);
  set.flags_.assign(g.size(), 0);
  for (const graph::NodeId u : nodes) {
    util::require_in_range(u < g.size(), "ByzantineSet::of: node out of range");
    if (set.flags_[u] == 0) {
      set.flags_[u] = 1;
      ++set.count_;
    }
  }
  return set;
}

void ByzantineSet::corrupt(graph::NodeId u) {
  util::require_in_range(u < graph_->size(), "corrupt: node out of range");
  if (flags_.empty()) flags_.assign(graph_->size(), 0);  // first corruption
  if (flags_[u] == 0) {
    flags_[u] = 1;
    ++count_;
  }
}

void ByzantineSet::heal(graph::NodeId u) {
  util::require_in_range(u < graph_->size(), "heal: node out of range");
  if (flags_.empty()) return;  // healing the honest is a no-op
  if (flags_[u] == 1) {
    flags_[u] = 0;
    --count_;
  }
}

void ByzantineSet::corrupt_checked(graph::NodeId u, const char* what) {
  util::require_in_range(u < graph_->size(), what);
  util::require(flags_[u] == 0, what);
  flags_[u] = 1;
  ++count_;
}

void ByzantineSet::heal_checked(graph::NodeId u, const char* what) {
  util::require_in_range(u < graph_->size(), what);
  util::require(flags_[u] == 1, what);
  flags_[u] = 0;
  --count_;
}

void ByzantineSet::apply(const ByzantineDelta& delta) {
  if (flags_.empty()) flags_.assign(graph_->size(), 0);
  for (const graph::NodeId u : delta.corrupts) {
    corrupt_checked(u, "ByzantineSet::apply: corrupting an already-corrupt "
                       "node (set and schedule out of sync)");
  }
  for (const graph::NodeId u : delta.heals) {
    heal_checked(u, "ByzantineSet::apply: healing an honest node (set and "
                    "schedule out of sync)");
  }
  ++epoch_;
}

void ByzantineSet::revert(const ByzantineDelta& delta) {
  util::require(epoch_ > 0, "ByzantineSet::revert: already at epoch 0");
  // The inverse batch: what apply corrupted gets healed and vice versa, so a
  // revert with the wrong delta (or out of order) fails loudly.
  for (const graph::NodeId u : delta.corrupts) {
    heal_checked(u, "ByzantineSet::revert: delta does not match the current "
                    "epoch (corrupt entry not corrupt)");
  }
  for (const graph::NodeId u : delta.heals) {
    corrupt_checked(u, "ByzantineSet::revert: delta does not match the "
                       "current epoch (heal entry not honest)");
  }
  --epoch_;
}

}  // namespace p2p::failure
