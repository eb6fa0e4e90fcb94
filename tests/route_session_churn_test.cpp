// Regression tests for the allocation-free RouteSession::step path
// (satellite of the CSR refactor): step-by-step sessions must agree
// hop-for-hop with route() and with the reference candidates() semantics,
// including when the failure view churns mid-search.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::core {
namespace {

using failure::FailureView;
using graph::BuildSpec;
using graph::NodeId;
using graph::OverlayGraph;
using metric::Space;

/// Reference re-implementation of the pre-refactor step loop: cursor into a
/// freshly materialized candidates() vector per hop (backtrack policy,
/// liveness knowledge, no reroutes). Used to pin the streaming session to
/// the old semantics under churn.
class ReferenceSession {
 public:
  ReferenceSession(const Router& router, NodeId src, metric::Point target)
      : router_(&router), current_(src) {
    target_node_ = router.graph().node_nearest(target);
    budget_ = router.effective_ttl();
  }

  /// One message transmission; nullopt when terminal.
  std::optional<NodeId> step() {
    const RouterConfig& cfg = router_->config();
    while (budget_ > 0) {
      --budget_;
      if (current_ == target_node_) {
        done_ = true;
        delivered_ = true;
        return std::nullopt;
      }
      const auto cands =
          router_->candidates(current_, router_->graph().position(target_node_));
      if (cursor_ < cands.size()) {
        if (cfg.stuck_policy == StuckPolicy::kBacktrack) {
          trail_.emplace_back(current_, cursor_ + 1);
          if (trail_.size() > cfg.backtrack_window) trail_.pop_front();
        }
        current_ = cands[cursor_];
        cursor_ = 0;
        ++hops_;
        return current_;
      }
      if (cfg.stuck_policy == StuckPolicy::kBacktrack && !trail_.empty()) {
        const auto [prev, rank] = trail_.back();
        trail_.pop_back();
        current_ = prev;
        cursor_ = rank;
        ++hops_;
        ++backtracks_;
        return current_;
      }
      done_ = true;
      return std::nullopt;
    }
    done_ = true;
    return std::nullopt;
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::size_t hops() const noexcept { return hops_; }
  [[nodiscard]] std::size_t backtracks() const noexcept { return backtracks_; }

 private:
  const Router* router_;
  NodeId current_;
  NodeId target_node_;
  std::deque<std::pair<NodeId, std::size_t>> trail_;
  std::size_t cursor_ = 0;
  std::size_t budget_;
  std::size_t hops_ = 0;
  std::size_t backtracks_ = 0;
  bool done_ = false;
  bool delivered_ = false;
};

OverlayGraph test_overlay(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  return build_overlay(spec, rng);
}

/// Kill schedule: after the k-th message transmission, kill node[k % alive].
struct ChurnSchedule {
  std::vector<NodeId> victims;
  std::size_t period = 2;  ///< kill one victim every `period` hops
};

TEST(RouteSessionChurn, SessionMatchesReferenceUnderChurn) {
  const OverlayGraph g = test_overlay(512, 4, 11);
  RouterConfig cfg;
  cfg.stuck_policy = StuckPolicy::kBacktrack;

  util::Rng pick(23);
  for (int trial = 0; trial < 40; ++trial) {
    // Two identical views over the same graph, churned in lockstep.
    auto view_a = FailureView::all_alive(g);
    auto view_b = FailureView::all_alive(g);
    const Router router_a(g, view_a, cfg);
    const Router router_b(g, view_b, cfg);

    const auto src = static_cast<NodeId>(pick.next_below(g.size()));
    const auto dst = static_cast<NodeId>(pick.next_below(g.size()));
    ChurnSchedule churn;
    for (int k = 0; k < 12; ++k) {
      churn.victims.push_back(static_cast<NodeId>(pick.next_below(g.size())));
    }

    RouteSession session(router_a, src, g.position(dst));
    ReferenceSession reference(router_b, src, g.position(dst));
    util::Rng step_rng(7);  // unused by backtracking, required by step()

    std::size_t transmissions = 0;
    std::size_t next_victim = 0;
    for (;;) {
      const auto hop_a = session.step(step_rng);
      const auto hop_b = reference.step();
      ASSERT_EQ(hop_a.has_value(), hop_b.has_value())
          << "trial " << trial << " transmission " << transmissions;
      if (!hop_a) break;
      ASSERT_EQ(*hop_a, *hop_b) << "trial " << trial << " transmission "
                                << transmissions;
      ++transmissions;
      // Mid-search churn, applied identically to both views.
      if (transmissions % churn.period == 0 && next_victim < churn.victims.size()) {
        NodeId victim = churn.victims[next_victim++];
        if (victim != dst && victim != *hop_a) {
          view_a.kill_node(victim);
          view_b.kill_node(victim);
        }
      }
    }
    EXPECT_EQ(session.result().hops, reference.hops());
    EXPECT_EQ(session.result().backtracks, reference.backtracks());
    EXPECT_EQ(session.state() == RouteSession::State::kDelivered,
              reference.delivered());
  }
}

TEST(RouteSessionChurn, RouteAgreesWithSessionOnChurnedView) {
  // After churn settles, a fresh route() and a fresh stepped session over
  // the same mutated view must agree hop-for-hop.
  const OverlayGraph g = test_overlay(512, 4, 19);
  auto view = FailureView::all_alive(g);
  util::Rng churn_rng(3);
  for (int k = 0; k < 150; ++k) {
    view.kill_node(static_cast<NodeId>(churn_rng.next_below(g.size())));
  }

  for (const StuckPolicy policy :
       {StuckPolicy::kTerminate, StuckPolicy::kRandomReroute, StuckPolicy::kBacktrack}) {
    RouterConfig cfg;
    cfg.stuck_policy = policy;
    cfg.record_path = true;
    const Router router(g, view, cfg);
    util::Rng pick(41);
    for (int trial = 0; trial < 30; ++trial) {
      const NodeId src = view.random_alive(pick);
      const NodeId dst = view.random_alive(pick);
      util::Rng rng_a(1000 + trial), rng_b(1000 + trial);
      const RouteResult direct = router.route(src, g.position(dst), rng_a);

      RouteSession session(router, src, g.position(dst));
      std::vector<NodeId> stepped{src};
      while (const auto hop = session.step(rng_b)) stepped.push_back(*hop);

      EXPECT_EQ(session.result().status, direct.status);
      EXPECT_EQ(session.result().hops, direct.hops);
      EXPECT_EQ(session.result().backtracks, direct.backtracks);
      EXPECT_EQ(session.result().reroutes, direct.reroutes);
      EXPECT_EQ(stepped, direct.path);
    }
  }
}

TEST(RouteSessionChurn, SessionStopsWhenPathDiesMidFlight) {
  // The classic mid-flight adaptation case, now against the CSR fast path:
  // a node dying between steps must be honoured by the next step.
  graph::GraphBuilder builder(Space::ring(10));
  builder.wire_short_links();
  OverlayGraph g = builder.freeze();
  auto view = FailureView::all_alive(g);
  const Router router(g, view);
  RouteSession session(router, 0, 5);
  util::Rng rng(1);
  ASSERT_EQ(session.step(rng), std::optional<NodeId>(1));
  view.kill_node(2);
  EXPECT_EQ(session.step(rng), std::nullopt);
  EXPECT_EQ(session.state(), RouteSession::State::kStuck);
}

}  // namespace
}  // namespace p2p::core
