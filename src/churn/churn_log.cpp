#include "churn/churn_log.h"

#include <algorithm>

#include "util/require.h"

namespace p2p::churn {

namespace {

/// Removes the first occurrence of `value` from `batch`, returning whether
/// one was found — the in-batch cancellation path (kill then revive of the
/// same bit inside one staged batch nets out to nothing).
template <typename T>
bool erase_staged(std::vector<T>& batch, T value) {
  const auto it = std::find(batch.begin(), batch.end(), value);
  if (it == batch.end()) return false;
  batch.erase(it);
  return true;
}

}  // namespace

ChurnLog::ChurnLog(const failure::FailureView& baseline)
    : baseline_(baseline), committed_(baseline), shadow_(baseline) {
  util::require(baseline.epoch() == 0,
                "ChurnLog: baseline must be an epoch-0 view");
}

void ChurnLog::kill_node(graph::NodeId u) {
  util::require_in_range(u < graph().size(),
                         "ChurnLog::kill_node: node out of range");
  if (!shadow_.node_alive(u)) return;  // no-op against the running state
  shadow_.kill_node(u);
  // Alive in the shadow but dead at the last commit means this batch staged
  // a revive — cancel it; otherwise this kill is a fresh change.
  if (committed_.node_alive(u)) {
    staged_.node_kills.push_back(u);
  } else {
    erase_staged(staged_.node_revives, u);
  }
}

void ChurnLog::revive_node(graph::NodeId u) {
  util::require_in_range(u < graph().size(),
                         "ChurnLog::revive_node: node out of range");
  if (shadow_.node_alive(u)) return;
  shadow_.revive_node(u);
  if (!committed_.node_alive(u)) {
    staged_.node_revives.push_back(u);
  } else {
    erase_staged(staged_.node_kills, u);
  }
}

void ChurnLog::kill_link(graph::NodeId u, std::size_t link_index) {
  util::require_in_range(u < graph().size(),
                         "ChurnLog::kill_link: node out of range");
  util::require_in_range(link_index < graph().out_degree(u),
                         "ChurnLog::kill_link: link index out of range");
  const auto slot =
      static_cast<std::uint32_t>(graph().edge_base(u) + link_index);
  if (!shadow_.link_alive_at(slot)) return;
  shadow_.kill_link_slot(slot);
  if (committed_.link_alive_at(slot)) {
    staged_.link_kills.push_back(slot);
  } else {
    erase_staged(staged_.link_revives, slot);
  }
}

void ChurnLog::revive_link(graph::NodeId u, std::size_t link_index) {
  util::require_in_range(u < graph().size(),
                         "ChurnLog::revive_link: node out of range");
  util::require_in_range(link_index < graph().out_degree(u),
                         "ChurnLog::revive_link: link index out of range");
  const auto slot =
      static_cast<std::uint32_t>(graph().edge_base(u) + link_index);
  if (shadow_.link_alive_at(slot)) return;
  shadow_.revive_link_slot(slot);
  if (!committed_.link_alive_at(slot)) {
    staged_.link_revives.push_back(slot);
  } else {
    erase_staged(staged_.link_kills, slot);
  }
}

std::size_t ChurnLog::commit(double when) {
  util::require(deltas_.empty() || when >= deltas_.back().when,
                "ChurnLog::commit: timestamps must be non-decreasing");
  staged_.when = when;
  total_changes_ += staged_.change_count();
  committed_.apply(staged_);  // O(changes); also re-checks normalization
  deltas_.push_back(std::move(staged_));
  staged_ = FailureDelta{};
  return deltas_.size();
}

void ChurnLog::seek(failure::FailureView& view, std::uint64_t target_epoch) const {
  util::require(&view.graph() == &graph(),
                "ChurnLog::seek: view belongs to a different graph");
  util::require(target_epoch <= deltas_.size(),
                "ChurnLog::seek: target epoch beyond the log");
  util::require(view.epoch() <= deltas_.size(),
                "ChurnLog::seek: view epoch beyond the log (wrong log?)");
  while (view.epoch() < target_epoch) view.apply(deltas_[view.epoch()]);
  while (view.epoch() > target_epoch) view.revert(deltas_[view.epoch() - 1]);
}

failure::FailureView ChurnLog::materialize(std::uint64_t epoch) const {
  util::require(epoch <= deltas_.size(),
                "ChurnLog::materialize: epoch beyond the log");
  failure::FailureView view = baseline_;
  for (std::uint64_t e = 0; e < epoch; ++e) view.apply(deltas_[e]);
  return view;
}

}  // namespace p2p::churn
