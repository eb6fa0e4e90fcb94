// The epoch-stamped churn delta log (ROADMAP: "Adaptive failure-view
// deltas").
//
// The paper's fault-tolerance experiments (§4.3.3–§4.3.4, §6) draw one
// failure pattern per trial; sustained-churn studies instead need a *trace* —
// thousands of kill/revive batches — replayed over one built network. A
// ChurnLog records that trace as a sequence of failure::FailureDelta batches,
// one per epoch: epoch e is the liveness state after applying deltas
// [0, e) to the baseline, so valid epochs run 0..size().
//
// Recording normalizes: staged changes that are no-ops against the running
// shadow state (killing the dead, reviving the living, kill+revive of the
// same bit inside one batch) are dropped at stage time, which is what makes
// every committed delta an exact, invertible bit-flip set. seek() then moves
// a live FailureView between any two epochs at O(changed bits) — forward via
// apply, backward via revert — instead of the O(n) from-scratch rebuild that
// materialize() provides as the equivalence/benchmark baseline
// (bench/churn_replay.cpp pins the speedup; tests/churn_log_test.cpp pins
// bit-equivalence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "failure/failure_model.h"
#include "graph/overlay_graph.h"

namespace p2p::churn {

using failure::FailureDelta;

/// An append-only log of epoch-stamped kill/revive batches over one graph.
class ChurnLog {
 public:
  /// A log whose epoch 0 is `baseline` (copied). Precondition:
  /// baseline.epoch() == 0 — a log records deltas from a fresh state, not
  /// from the middle of another log.
  explicit ChurnLog(const failure::FailureView& baseline);

  /// A log over the all-alive baseline.
  explicit ChurnLog(const graph::OverlayGraph& g)
      : ChurnLog(failure::FailureView::all_alive(g)) {}

  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept {
    return baseline_.graph();
  }

  /// The epoch-0 state.
  [[nodiscard]] const failure::FailureView& baseline() const noexcept {
    return baseline_;
  }

  /// The state after every committed delta plus the staged changes — what
  /// trace generators sample "currently alive" nodes from.
  [[nodiscard]] const failure::FailureView& shadow() const noexcept {
    return shadow_;
  }

  // -- Recording -----------------------------------------------------------
  // Stage changes, then commit them as one atomic epoch batch. Staged no-ops
  // (relative to shadow()) are dropped silently.

  void kill_node(graph::NodeId u);
  void revive_node(graph::NodeId u);
  void kill_link(graph::NodeId u, std::size_t link_index);
  void revive_link(graph::NodeId u, std::size_t link_index);

  [[nodiscard]] bool staged_empty() const noexcept { return staged_.empty(); }
  [[nodiscard]] std::size_t staged_changes() const noexcept {
    return staged_.change_count();
  }

  /// Commits the staged batch (possibly empty — a heartbeat epoch) stamped
  /// at virtual time `when`, and returns the new size(). Commit times must
  /// be non-decreasing.
  std::size_t commit(double when);

  // -- Reading / replay ----------------------------------------------------

  /// Number of committed deltas. Valid epochs are 0..size() inclusive.
  [[nodiscard]] std::size_t size() const noexcept { return deltas_.size(); }
  [[nodiscard]] bool empty() const noexcept { return deltas_.empty(); }

  /// The delta that advances epoch i to epoch i+1. Precondition: i < size().
  [[nodiscard]] const FailureDelta& delta(std::size_t i) const {
    return deltas_[i];
  }

  /// Total bit flips across all committed deltas.
  [[nodiscard]] std::size_t total_changes() const noexcept {
    return total_changes_;
  }

  /// Moves `view` from its current epoch to `target_epoch` by applying or
  /// reverting deltas in order — O(bits changed between the two epochs).
  /// Preconditions: `view` is a view over graph() whose epoch() was produced
  /// by replaying this log (epoch <= size()), and target_epoch <= size().
  void seek(failure::FailureView& view, std::uint64_t target_epoch) const;

  /// From-scratch build of the view at `epoch`: copies the baseline and
  /// applies the full delta prefix — the O(n + prefix) rebuild seek() makes
  /// unnecessary. Kept as the reference for equivalence tests and as the
  /// benchmark baseline. Precondition: epoch <= size().
  [[nodiscard]] failure::FailureView materialize(std::uint64_t epoch) const;

 private:
  failure::FailureView baseline_;
  /// State after every committed delta (advanced by apply at each commit).
  /// A bit that differs between committed_ and shadow_ is staged in the
  /// current batch — the O(1) test that keeps staging linear in batch size
  /// (the in-batch cancellation erase only runs on a genuine double flip).
  failure::FailureView committed_;
  failure::FailureView shadow_;
  FailureDelta staged_;
  std::vector<FailureDelta> deltas_;
  std::size_t total_changes_ = 0;
};

}  // namespace p2p::churn
