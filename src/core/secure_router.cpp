#include "core/secure_router.h"

#include <algorithm>

#include "core/route_telemetry.h"
#include "util/require.h"

namespace p2p::core {

namespace {

RouterConfig trusted_router_config(const SecureRouterConfig& config) {
  RouterConfig rc;
  rc.reputation = config.reputation;
  return rc;
}

}  // namespace

SecureRouter::SecureRouter(const graph::OverlayGraph& g,
                           const failure::FailureView& view,
                           const failure::ByzantineSet& byzantine,
                           SecureRouterConfig config)
    : graph_(&g),
      view_(&view),
      byzantine_(&byzantine),
      greedy_(g, view, RouterConfig{}),
      trusted_(g, view, trusted_router_config(config)),
      config_(config) {
  util::require(&view.graph() == &g, "SecureRouter: view must be over the graph");
  util::require(&byzantine.graph() == &g,
                "SecureRouter: byzantine set must be over the graph");
  util::require(config_.paths >= 1, "SecureRouter: need at least one path");
  util::require(config_.max_paths == 0 || config_.max_paths >= config_.paths,
                "SecureRouter: max_paths must be 0 (off) or >= paths");
  // trusted_'s constructor already rejected a reputation table over a
  // different graph.
}

std::size_t SecureRouter::walk_ttl() const noexcept {
  return config_.ttl != 0 ? config_.ttl : greedy_.effective_ttl();
}

std::size_t SecureRouter::max_walks() const noexcept {
  return config_.max_paths == 0 ? config_.paths : config_.max_paths;
}

SecureRouteResult SecureRouter::route(graph::NodeId src, metric::Point target,
                                      util::Rng& rng) const {
  SecureRouteSession session(*this, src, target);
  while (session.step(rng)) {
  }
  return session.result();
}

SecureRouteSession::SecureRouteSession(const SecureRouter& router,
                                       graph::NodeId src, metric::Point target)
    : router_(&router) {
  visited_epoch_.assign(router.graph().size(), 0);
  restart(src, target);
}

void SecureRouteSession::restart(graph::NodeId src, metric::Point target) {
  const graph::OverlayGraph& g = router_->graph();
  util::require_in_range(src < g.size(), "route: src out of range");
  util::require(g.space().contains(target), "route: target outside space");
  src_ = src;
  target_node_ = g.node_nearest(target);
  goal_ = g.position(target_node_);
  walk_active_ = false;
  batch_left_ = router_->config().paths;
  done_ = false;
  // Field-wise reset keeps the walks vector's capacity (the pipeline's
  // lane-refill path must not churn allocations).
  result_.delivered = false;
  result_.successful_walks = 0;
  result_.total_messages = 0;
  result_.best_hops = 0;
  result_.walks_launched = 0;
  result_.walks_died = 0;
  result_.walks_stuck = 0;
  result_.walks_ttl_expired = 0;
  result_.escalations = 0;
  result_.completion_epoch = 0;
  result_.byzantine_epoch = 0;
  result_.walks.clear();
}

void SecureRouteSession::start_walk() {
  // Walks are loop-free: an honest node never forwards to a node this walk
  // has already visited, so diverse walks cannot remerge through distance
  // ties (misrouted hops are exempt — attackers do not cooperate). Visited
  // markers are epoch stamps so successive walks — and successive queries
  // through the same pipeline lane — reuse the buffer without clearing it.
  if (++epoch_ == 0) {
    std::fill(visited_epoch_.begin(), visited_epoch_.end(), 0u);
    epoch_ = 1;
  }
  current_ = src_;
  visited_epoch_[src_] = epoch_;
  current_dist_ =
      router_->graph().space().distance(router_->graph().position(src_), goal_);
  first_hop_ = true;
  budget_ = router_->walk_ttl();
  walk_hops_ = 0;
  path_.clear();
  ++result_.walks_launched;
  walk_active_ = true;
}

bool SecureRouteSession::step(util::Rng& rng) {
  if (done_) return false;
  if (!walk_active_) start_walk();  // bookkeeping only; the hop happens below

  const SecureRouter& r = *router_;
  const graph::OverlayGraph& g = r.graph();
  const failure::FailureView& view = r.view();
  const SecureRouterConfig& cfg = r.config();

  // Crash churn first: a walk standing on a node killed since its last tick
  // dies where it stands — it never steps out of (or through) a crashed
  // node, no matter what the selection below would have chosen. On static
  // all-alive views this never fires.
  if (!view.node_alive(current_)) {
    finish_walk(WalkOutcome::kDied);
    return !done_;
  }
  if (budget_ == 0) {
    finish_walk(WalkOutcome::kTtlExpired);
    return !done_;
  }
  --budget_;
  if (current_ == target_node_) {
    finish_walk(WalkOutcome::kDelivered);
    return !done_;
  }

  failure::ReputationTable* rep = cfg.reputation;
  // Distrust is a *retry-time* bias: first-batch walks route at full greedy
  // speed (observations accumulate either way), and only escalation batches
  // — launched precisely because the adversary ate the whole first batch —
  // pay the detour cost of routing around suspects. Avoiding a distrusted
  // hub unconditionally costs more than it saves (hubs are what greedy
  // progress is made of); avoiding it on the retry of a search it plausibly
  // just killed is the favourable trade.
  const bool use_trust = rep != nullptr && rep->distrusted_count() != 0 &&
                         result_.escalations > 0;
  const auto seen = [&](graph::NodeId v) { return visited_epoch_[v] == epoch_; };

  graph::NodeId next = graph::kInvalidNode;
  if (current_ != src_ && r.byzantine().is_byzantine(current_)) {
    // The source itself is assumed honest (it originates the search);
    // intermediate Byzantine nodes misbehave.
    if (cfg.behavior == failure::ByzantineBehavior::kDrop) {
      finish_walk(WalkOutcome::kDied);  // blackholed
      return !done_;
    }
    // Misroute: forward to a uniformly random live neighbour. The attacker
    // does not consult the caller's reputation table.
    const auto neigh = g.neighbors(current_);
    for (int tries = 0; tries < 16 && next == graph::kInvalidNode; ++tries) {
      const std::size_t i = static_cast<std::size_t>(rng.next_below(neigh.size()));
      if (view.hop_usable(current_, i)) next = neigh[i];
    }
    if (next == graph::kInvalidNode) {
      finish_walk(WalkOutcome::kDied);  // isolated attacker
      return !done_;
    }
  } else if (first_hop_) {
    // Diverse egress: the first hop of walk i is the i-th *usable*
    // neighbour ranked by distance to the goal — including neighbours
    // farther than the source, so walks can leave in genuinely different
    // directions (a ring source has only one strictly-closer neighbour).
    // With reputation active, distrusted neighbours are filtered first and
    // the unfiltered ranking is the fallback — degrade, don't go dark.
    const auto neigh = g.neighbors(current_);
    const metric::Space& space = g.space();
    for (int pass = use_trust ? 0 : 1; pass < 2; ++pass) {
      ranked_.clear();
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        if (!view.hop_usable(current_, i)) continue;
        if (neigh[i] == current_ || seen(neigh[i])) continue;
        if (pass == 0 && !rep->trusted(neigh[i])) continue;
        ranked_.emplace_back(space.distance(g.position(neigh[i]), goal_),
                             neigh[i]);
      }
      if (!ranked_.empty()) break;
    }
    if (ranked_.empty()) {
      finish_walk(WalkOutcome::kStuck);  // isolated source
      return !done_;
    }
    std::sort(ranked_.begin(), ranked_.end());
    ranked_.erase(std::unique(ranked_.begin(), ranked_.end(),
                              [](const auto& a, const auto& b) {
                                return a.second == b.second;
                              }),
                  ranked_.end());
    const std::size_t rank = result_.walks_launched - 1;  // this walk's index
    next = ranked_[std::min(rank, ranked_.size() - 1)].second;
  } else {
    // Streaming selection: the best-ranked candidate this walk has not
    // visited yet, without materializing the candidate list. Escalation
    // batches scan through the trusted router (the distrust mask rides the
    // SIMD lanes); when the trusted scan comes up empty the plain greedy
    // scan is the fallback, so distrust biases selection without ever
    // disconnecting a walk.
    const Router& primary = use_trust ? r.trusted_ : r.greedy_;
    for (std::size_t rank = 0;; ++rank) {
      const graph::NodeId cand = primary.select_candidate(current_, goal_, rank);
      if (cand == graph::kInvalidNode) break;
      if (!seen(cand)) {
        next = cand;
        break;
      }
    }
    if (next == graph::kInvalidNode && use_trust) {
      for (std::size_t rank = 0;; ++rank) {
        const graph::NodeId cand = r.greedy_.select_candidate(current_, goal_, rank);
        if (cand == graph::kInvalidNode) break;
        if (!seen(cand)) {
          next = cand;
          break;
        }
      }
    }
    if (next == graph::kInvalidNode) {
      finish_walk(WalkOutcome::kStuck);  // honest but stuck
      return !done_;
    }
  }

  // One message transmission.
  const metric::Distance next_dist =
      g.space().distance(g.position(next), goal_);
  if (rep != nullptr && !first_hop_ && next_dist >= current_dist_) {
    // A non-first hop that fails to make strict greedy progress can only be
    // a misroute (honest selection is strictly-closer; the diverse first hop
    // is exempt by design) — charge the node that made the choice.
    rep->record(current_, failure::Observation::kRegressed);
    if (cfg.telemetry != nullptr) cfg.telemetry->record_penalty();
  }
  first_hop_ = false;
  current_ = next;
  current_dist_ = next_dist;
  visited_epoch_[next] = epoch_;
  ++walk_hops_;
  ++result_.total_messages;
  if (rep != nullptr) path_.push_back(next);
  return true;
}

void SecureRouteSession::finish_walk(WalkOutcome outcome) {
  const SecureRouterConfig& cfg = router_->config();
  failure::ReputationTable* rep = cfg.reputation;
  walk_active_ = false;
  switch (outcome) {
    case WalkOutcome::kDelivered:
      ++result_.successful_walks;
      if (result_.best_hops == 0 || walk_hops_ < result_.best_hops) {
        result_.best_hops = walk_hops_;
      }
      if (rep != nullptr) {
        // Reward every relay that carried the walk home (the target
        // included — it is on the path and plainly cooperating).
        for (const graph::NodeId v : path_) {
          rep->record(v, failure::Observation::kDelivered);
        }
        if (cfg.telemetry != nullptr) cfg.telemetry->record_reward(path_.size());
      }
      break;
    case WalkOutcome::kDied:
      ++result_.walks_died;
      // The node the walk died at is the prime suspect: its upstream
      // neighbour observed the hand-off and the silence that followed. But
      // only an *alive* node that swallowed a message earns distrust — a
      // visible crash is the failure view's business, and charging it would
      // make an innocent node revive into shunning.
      if (rep != nullptr && router_->view().node_alive(current_)) {
        rep->record(current_, failure::Observation::kDiedAtHop);
        if (cfg.telemetry != nullptr) cfg.telemetry->record_penalty();
      }
      break;
    case WalkOutcome::kStuck:
      ++result_.walks_stuck;  // honest dead-end; nobody to blame
      break;
    case WalkOutcome::kTtlExpired:
      ++result_.walks_ttl_expired;
      // Weak evidence against the last holder (it may be an innocent node a
      // misrouter dumped the message near — the small penalty_timeout plus
      // decay keeps this from condemning bystanders).
      if (rep != nullptr) {
        rep->record(current_, failure::Observation::kTimedOut);
        if (cfg.telemetry != nullptr) cfg.telemetry->record_penalty();
      }
      break;
  }
  if (cfg.record_walks) {
    result_.walks.push_back(WalkReport{outcome, walk_hops_,
                                       result_.walks_launched - 1, current_});
  }
  if (--batch_left_ > 0) return;  // next walk of the batch starts next tick
  if (result_.successful_walks == 0 &&
      result_.walks_launched < router_->max_walks()) {
    // Retry/backoff: the whole batch died — escalate with another round of
    // walks over later-ranked first hops.
    ++result_.escalations;
    batch_left_ = std::min(cfg.paths,
                           router_->max_walks() - result_.walks_launched);
    return;
  }
  result_.delivered = result_.successful_walks > 0;
  result_.completion_epoch = router_->view().epoch();
  result_.byzantine_epoch = router_->byzantine().epoch();
  done_ = true;
  // One record per retired query, shared by route(), session stepping and
  // the batch pipeline (all of which funnel through this terminal state).
  if (cfg.telemetry != nullptr) cfg.telemetry->record(result_);
}

}  // namespace p2p::core
