// The routing contract in one place: a walk that follows the paper's
// definitions hop by hop and reads Router::candidates() at every hop.
//
// §4.2.1 greedy: a node forwards to its best neighbour strictly closer to
// the goal (two-sided), or only to neighbours that do not pass the goal
// (one-sided); candidates() lists them best first, ties by position, with
// dead links, distrusted nodes and (under Knowledge::kLiveness) dead nodes
// already removed. §6 recovery, when the node has no (further) candidate:
//  * terminate      — the search fails;
//  * random reroute — up to max_reroutes times, detour to a uniformly random
//    live node (FailureView::random_alive, the walk's only rng call), then
//    resume toward the target once the detour node is reached;
//  * backtracking   — return to the most recent of the last backtrack_window
//    nodes the message left and have it try its next-best candidate.
// Under Knowledge::kStale a node commits to its pick without knowing whether
// it is alive; a dead pick leaves the node stuck.
//
// A hop budget of Router::effective_ttl() loop iterations bounds every
// search, and every forward hop, reroute leg hop and backtrack return is one
// message. The walk shares no code with RouteSession: the candidate list is
// materialized and sorted, and the trail is a deque trimmed from the front,
// so select_candidate's streaming scans, the SIMD kernels, the compact
// decode and the session's ring-buffer trail are all checked against it.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::core {

/// One search, advanced one message transmission at a time.
class ReferenceWalk {
 public:
  ReferenceWalk(const Router& router, graph::NodeId src, metric::Point target)
      : router_(&router),
        current_(src),
        target_node_(router.graph().node_nearest(target)),
        budget_(router.effective_ttl()) {
    if (router.config().record_path) result_.path.push_back(src);
  }

  /// Advances to the next transmission; the node the message moved to, or
  /// std::nullopt once the search has ended.
  std::optional<graph::NodeId> step(util::Rng& rng) {
    if (finished_) return std::nullopt;
    const RouterConfig& cfg = router_->config();
    const failure::FailureView& view = router_->view();
    while (budget_ > 0) {
      --budget_;
      if (current_ == target_node_) return finish(RouteResult::Status::kDelivered);
      if (detour_ && current_ == *detour_) {
        detour_.reset();
        rank_ = 0;
        continue;
      }
      const graph::NodeId goal = detour_ ? *detour_ : target_node_;
      const std::vector<graph::NodeId> ranked =
          router_->candidates(current_, router_->graph().position(goal));
      graph::NodeId next = rank_ < ranked.size() ? ranked[rank_] : graph::kInvalidNode;
      if (next != graph::kInvalidNode && cfg.knowledge == Knowledge::kStale &&
          !view.node_alive(next)) {
        next = graph::kInvalidNode;
      }
      if (next != graph::kInvalidNode) {
        if (cfg.stuck_policy == StuckPolicy::kBacktrack) {
          trail_.emplace_back(current_, rank_ + 1);
          if (trail_.size() > cfg.backtrack_window) trail_.pop_front();
        }
        return move_to(next, 0);
      }
      switch (cfg.stuck_policy) {
        case StuckPolicy::kTerminate:
          return finish(RouteResult::Status::kStuck);
        case StuckPolicy::kRandomReroute:
          if (result_.reroutes >= cfg.max_reroutes || view.alive_count() == 0) {
            return finish(RouteResult::Status::kStuck);
          }
          ++result_.reroutes;
          detour_ = view.random_alive(rng);
          rank_ = 0;
          continue;
        case StuckPolicy::kBacktrack: {
          if (trail_.empty()) return finish(RouteResult::Status::kStuck);
          const auto [prev, rank] = trail_.back();
          trail_.pop_back();
          ++result_.backtracks;
          return move_to(prev, rank);
        }
      }
    }
    return finish(RouteResult::Status::kTtlExpired);
  }

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] const RouteResult& result() const noexcept { return result_; }

 private:
  std::optional<graph::NodeId> move_to(graph::NodeId v, std::size_t rank) {
    current_ = v;
    rank_ = rank;
    ++result_.hops;
    if (router_->config().record_path) result_.path.push_back(v);
    return v;
  }

  std::optional<graph::NodeId> finish(RouteResult::Status status) {
    finished_ = true;
    result_.status = status;
    result_.completion_epoch = router_->view().epoch();
    return std::nullopt;
  }

  const Router* router_;
  graph::NodeId current_;
  graph::NodeId target_node_;
  std::size_t budget_;
  std::size_t rank_ = 0;  // candidate rank the current node tries next
  std::optional<graph::NodeId> detour_;
  std::deque<std::pair<graph::NodeId, std::size_t>> trail_;
  bool finished_ = false;
  RouteResult result_;
};

/// A whole search through the reference walk: what Router::route must return.
inline RouteResult reference_route(const Router& router, graph::NodeId src,
                                   metric::Point target, util::Rng& rng) {
  ReferenceWalk walk(router, src, target);
  while (walk.step(rng)) {
  }
  return walk.result();
}

}  // namespace p2p::core
