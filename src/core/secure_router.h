// Byzantine-tolerant routing by redundancy (§7 future work, realized).
//
// A greedy sender cannot distinguish a Byzantine next hop from an honest
// one, so any single greedy walk is hostage to every node on its path. The
// classic mitigation (cf. S/Kademlia's disjoint-path lookups) is to launch
// k walks over *diverse first hops*: walk i leaves the source over its i-th
// best candidate, so the walks tend to traverse disjoint regions, and the
// search succeeds if any walk reaches the target.
//
// The walk semantics under attack:
//  * an honest node forwards greedily (best live candidate);
//  * a kDrop Byzantine node swallows the message — the walk dies silently;
//  * a kMisroute Byzantine node forwards to a uniformly random neighbour;
//    the walk continues but its progress is destroyed (it still counts
//    against the TTL, and may never recover).
//
// The destination validates content by key (§2's metric-space invariant:
// the *location* of a resource is checkable by anyone), so a Byzantine node
// cannot forge a successful delivery — it can only prevent one.
//
// Beyond plain redundancy, two adaptive layers (both off by default):
//  * retry/backoff — when every walk of a batch dies, escalate: launch
//    further batches over later-ranked first hops, up to
//    SecureRouterConfig::max_paths total walks;
//  * reputation feedback — with a failure::ReputationTable wired in, each
//    walk's locally observable outcome is attributed to nodes (died-at-hop,
//    regressed-a-message, timed-out, delivered) and the resulting distrust
//    mask biases candidate selection away from suspects via the Router's
//    trust sideband. Distrust never partitions reachability: when the
//    trusted selection has no candidate the walk falls back to the plain
//    greedy choice, so a heavily penalized neighbourhood degrades to
//    ordinary routing instead of going dark, and decay_epoch() lets healed
//    nodes recover (graceful degradation, not blacklisting).
//
// Like the plain Router, three entry points share one implementation:
// route() walks a search synchronously, SecureRouteSession advances the
// same search one message transmission at a time (the discrete-event
// replay's unit — sessions re-read the failure view *and* the Byzantine set
// every step, so crash churn and corrupt/heal events mid-search are
// honoured), and SecureBatchPipeline rotates many sessions through the
// plain router's ring (core::WalkPipeline, core/router.h), adjacency
// lookahead included. route() is the session stepped to completion, so all
// three stay bit-identical per query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/router.h"
#include "failure/byzantine.h"
#include "failure/failure_model.h"
#include "failure/reputation.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"

namespace p2p::core {

struct SecureTelemetry;  // core/route_telemetry.h — walk-outcome metric sink

/// Redundant-routing knobs.
struct SecureRouterConfig {
  /// Number of parallel walks per batch (1 = plain greedy).
  std::size_t paths = 3;
  /// Per-walk hop budget; 0 = automatic (same rule as RouterConfig::ttl).
  std::size_t ttl = 0;
  /// What Byzantine nodes do to messages they should forward.
  failure::ByzantineBehavior behavior = failure::ByzantineBehavior::kDrop;
  /// Escalation ceiling on total walks per query: when a whole batch ends
  /// with zero deliveries and fewer than max_paths walks have launched,
  /// another batch of `paths` walks goes out over later-ranked first hops.
  /// 0 (default) disables escalation (max_paths == paths).
  std::size_t max_paths = 0;
  /// Optional reputation feedback (see the file comment). The table must be
  /// over the same graph and outlive the router; it is *mutated* by routing
  /// (outcome attribution), which is the point. nullptr = off.
  failure::ReputationTable* reputation = nullptr;
  /// Record a per-walk WalkReport in SecureRouteResult::walks.
  bool record_walks = false;
  /// Optional walk-outcome/escalation/reputation-attribution metrics
  /// (core/route_telemetry.h). Recorded once per retired query plus one
  /// counter bump per reputation observation; null = off. The bundle's
  /// Recorder shard must belong to the thread routing through this router.
  SecureTelemetry* telemetry = nullptr;
};

/// How one walk ended.
enum class WalkOutcome : std::uint8_t {
  kDelivered,   ///< reached the target node
  kDied,        ///< blackholed by a Byzantine node or stranded on a crash
  kStuck,       ///< honest node with no unvisited live closer candidate
  kTtlExpired,  ///< hop budget exhausted (e.g. misrouted into a loop)
};

/// Per-walk attribution, recorded when SecureRouterConfig::record_walks.
struct WalkReport {
  WalkOutcome outcome = WalkOutcome::kStuck;
  /// Messages this walk transmitted.
  std::size_t hops = 0;
  /// Rank of the source link the walk left over (the diversity index).
  std::size_t first_hop_rank = 0;
  /// Where the walk ended: the target (kDelivered), the node it died at
  /// (kDied), or where it was stranded (kStuck / kTtlExpired).
  graph::NodeId last = graph::kInvalidNode;
};

/// Outcome of a redundant search.
struct SecureRouteResult {
  bool delivered = false;
  /// Walks that reached the target.
  std::size_t successful_walks = 0;
  /// Total messages across all walks (the redundancy cost).
  std::size_t total_messages = 0;
  /// Hops of the fastest successful walk (0 when none succeeded).
  std::size_t best_hops = 0;
  /// Walks launched in total (paths + any escalation batches).
  std::size_t walks_launched = 0;
  /// Outcome attribution across all launched walks.
  std::size_t walks_died = 0;
  std::size_t walks_stuck = 0;
  std::size_t walks_ttl_expired = 0;
  /// Escalation batches taken beyond the first (0 = first batch sufficed or
  /// escalation disabled).
  std::size_t escalations = 0;
  /// FailureView::epoch() / ByzantineSet::epoch() when the search
  /// terminated — buckets each outcome against both adversarial timelines
  /// under replay (static scenarios leave them 0).
  std::uint64_t completion_epoch = 0;
  std::uint64_t byzantine_epoch = 0;
  /// Per-walk reports when SecureRouterConfig::record_walks is set.
  std::vector<WalkReport> walks;
};

/// Greedy router hardened with k diverse redundant walks.
class SecureRouter {
 public:
  /// All referenced objects must outlive the router; `byzantine` (and
  /// config.reputation, when set) must be over the same graph as `view`.
  SecureRouter(const graph::OverlayGraph& g, const failure::FailureView& view,
               const failure::ByzantineSet& byzantine, SecureRouterConfig config);

  /// Launches config.paths walks from src toward the node nearest `target`
  /// (plus escalation batches, when enabled). Implemented as a
  /// SecureRouteSession stepped to completion — bit-identical to stepping
  /// one yourself.
  [[nodiscard]] SecureRouteResult route(graph::NodeId src, metric::Point target,
                                        util::Rng& rng) const;

  [[nodiscard]] const SecureRouterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const failure::FailureView& view() const noexcept { return *view_; }
  [[nodiscard]] const failure::ByzantineSet& byzantine() const noexcept {
    return *byzantine_;
  }
  /// The reputation table routing feeds, or nullptr when off.
  [[nodiscard]] failure::ReputationTable* reputation() const noexcept {
    return config_.reputation;
  }

  /// Effective per-walk hop budget (config.ttl or the automatic rule).
  [[nodiscard]] std::size_t walk_ttl() const noexcept;
  /// Effective escalation ceiling (config.max_paths or paths when disabled).
  [[nodiscard]] std::size_t max_walks() const noexcept;

 private:
  friend class SecureRouteSession;

  const graph::OverlayGraph* graph_;
  const failure::FailureView* view_;
  const failure::ByzantineSet* byzantine_;
  /// Candidate machinery reused from the plain router: greedy_ selects with
  /// no trust mask (the fallback / reputation-off path), trusted_ carries
  /// the distrust sideband when reputation is wired (and aliases greedy_'s
  /// behaviour while nobody is distrusted — the mask self-gates).
  Router greedy_;
  Router trusted_;
  SecureRouterConfig config_;
};

/// One in-flight redundant search, advanced a single message transmission
/// (or terminal walk event) at a time. Walks run sequentially within the
/// session; the failure view and Byzantine set are re-read every tick, so
/// mid-search churn and corrupt/heal events are honoured — a walk standing
/// on a node killed by a replay delta dies on its next tick rather than
/// stepping out of a crashed node.
class SecureRouteSession {
 public:
  using RouterType = SecureRouter;
  using ResultType = SecureRouteResult;

  /// Preconditions as SecureRouter::route. Allocates the visited array once
  /// (one u32 per node); restart() reuses it.
  SecureRouteSession(const SecureRouter& router, graph::NodeId src,
                     metric::Point target);

  /// Rebinds the session to a fresh search, reusing all buffers — the batch
  /// pipeline's lane-refill path.
  void restart(graph::NodeId src, metric::Point target);

  /// Advances by one message transmission or one terminal walk event.
  /// Returns false once the whole search has terminated (results in
  /// result()).
  bool step(util::Rng& rng);

  [[nodiscard]] bool finished() const noexcept { return done_; }
  /// The node the next step() reads: the active walk's position, or the
  /// source while the next walk waits to start.
  [[nodiscard]] graph::NodeId current() const noexcept {
    return walk_active_ ? current_ : src_;
  }
  /// The accumulated outcome; complete once finished().
  [[nodiscard]] const SecureRouteResult& result() const noexcept { return result_; }

 private:
  /// Starts walk number result_.walks_launched (bookkeeping only — no
  /// message moves until the next step()).
  void start_walk();
  /// Terminal transition of the active walk: accumulates the outcome,
  /// attributes reputation, and decides continue / escalate / finish.
  void finish_walk(WalkOutcome outcome);

  const SecureRouter* router_;
  graph::NodeId src_ = 0;
  graph::NodeId target_node_ = 0;
  metric::Point goal_ = 0;

  // Active walk state.
  bool walk_active_ = false;
  bool first_hop_ = true;
  graph::NodeId current_ = 0;
  metric::Distance current_dist_ = 0;
  std::size_t budget_ = 0;
  std::size_t walk_hops_ = 0;
  std::size_t batch_left_ = 0;  // walks remaining in the current batch

  // Shared per-session scratch: epoch-stamped visited markers (no clearing
  // between walks or restarts), the first-hop ranking buffer, and the
  // active walk's path (kept only when reputation feedback needs to reward
  // a delivered walk's relay nodes).
  std::vector<std::uint32_t> visited_epoch_;
  std::vector<std::pair<metric::Distance, graph::NodeId>> ranked_;
  std::vector<graph::NodeId> path_;
  std::uint32_t epoch_ = 0;

  bool done_ = false;
  SecureRouteResult result_;
};

/// The batch ring over SecureRouteSessions: core::WalkPipeline with the
/// plain pipeline's lanes, seeding, refill, drain and prefetching. Lane i
/// runs on util::substream(seed_base, i), so results are bit-identical to
/// SecureRouter::route with that stream, independent of width, lookahead or
/// interleaving — and the failure view and Byzantine set may be mutated
/// *between ticks* (sessions re-read both every step), which is how
/// churn::AdversarialReplay composes the two adversarial timelines with
/// routing. Reputation feedback shares one table across lanes, so with it
/// on, results depend on the interleaving by design.
extern template class WalkPipeline<SecureRouteSession>;
using SecureBatchPipeline = WalkPipeline<SecureRouteSession>;

}  // namespace p2p::core
