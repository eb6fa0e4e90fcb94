// Greedy routing over the overlay, with the paper's failure-recovery
// strategies.
//
// §4.2.1 defines two greedy variants:
//  * two-sided — move to the neighbour minimising distance to the target,
//    regardless of which side of the target it lands on (the default);
//  * one-sided — never traverse a link that would take the message past the
//    target (models Chord-style unidirectional routing and is the variant
//    with the stronger lower bound). Sidedness is an ordering notion that
//    only 1-D spaces define; constructing a one-sided Router over a 2-D
//    (torus) overlay throws std::invalid_argument.
//
// §6 studies three ways to recover when a node has no live neighbour closer
// to the target than itself:
//  * terminate      — the search fails;
//  * random reroute — deliver the message to a uniformly random live node,
//    then retry toward the original destination (Valiant-style [14]);
//  * backtracking   — keep the last `backtrack_window` (paper: 5) visited
//    nodes; when stuck, return to the most recent one and have it try its
//    next-best neighbour.
//
// Knowledge models: by default a node knows which of its neighbours are
// alive (kLiveness) and picks the best live one; the kStale ablation picks
// the best neighbour obliviously and triggers recovery when that single
// choice turns out dead, matching §6's remark that "once a node chooses its
// best neighbour, it does not send the message to any other link".
//
// The hot path is allocation-free: each hop streams over the node's CSR
// neighbour slice with select_candidate (a k-th order statistic scan over
// ~lg n links) instead of materializing and sorting a candidate vector. The
// vector-returning candidates() survives as the reference implementation
// for tests and offline analysis; select_candidate(u, t, rank) must always
// equal candidates(u, t)[rank].
//
// Three entry points share one implementation: Router::route() walks a
// search synchronously (hop counting, the paper's measurements), RouteSession
// exposes the same walk one message-transmission at a time for the churn
// replays, and Router::route_batch() software-pipelines many
// independent searches through a rotating ring of RouteSessions. The shared
// per-hop advance lives in RouteSession::step (this header) so all three stay
// bit-identical per query.
//
// Batching exists because a single search is a serial chain of dependent
// header loads (~one cache line per hop, see overlay_graph.h): at large n the
// scalar path is bound by DRAM latency, not work. route_batch keeps W
// searches in flight and advances them round-robin, and prefetches at two
// levels so the misses of independent searches overlap instead of
// serializing: each select prefetches the header of the node it picks, a
// full rotation (~W ticks) before that lane's next step reads it; and each
// tick, once a lane's header is resident, prefetches every adjacency line
// its next select reads `prefetch_distance` ticks ahead of its step. That is
// OverlayGraph::select_extent(u): the compact slot + exception stream or a
// standard node's spill tail, sized from u's own header, with each vector
// load counted at its full width (a masked load pulls in every line its
// width spans), so no line the kernel loads is left to a demand miss; Debug
// builds assert it at every vector load. Per-query
// results are bit-identical to route() seeded with util::substream(base,
// query_index), independent of the interleaving.
//
// The ring is one template, WalkPipeline<Session>, over the session it
// rotates: BatchPipeline rotates RouteSessions, and SecureBatchPipeline
// (core/secure_router.h) rotates the §7 redundant SecureRouteSessions with
// the same lanes, seeding, refill, drain and both prefetch levels. What
// differs between the two is fixed by the session type at compile time.
//
// Where the select kernel is chosen: in one function of router.cpp
// (with_select), from the router (AVX-512 eligibility, metric family,
// layout, sidedness) and the view and reputation state (link/node/trust
// masks). select_candidate, which a stepped session and route() call, runs
// it on every call. A BatchPipeline runs it once per advance(): nothing
// mutates the view between the ticks of one advance, so the whole walk runs
// with the variant picked on entry. On an AVX-512 router that walk is
// compiled with the kernel inlined as its selector, one loop with no call
// per hop; on every other router it calls the scalar table entry picked on
// entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "failure/failure_model.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/rng.h"

namespace p2p::failure {
class ReputationTable;  // failure/reputation.h — distrust mask provider
}

namespace p2p::telemetry {
class TraceBuffer;  // telemetry/flight_recorder.h — sampled hop-trail ring
}

namespace p2p::core {

struct RouteTelemetry;  // core/route_telemetry.h — per-query metric sink

enum class Sidedness { kTwoSided, kOneSided };
enum class StuckPolicy { kTerminate, kRandomReroute, kBacktrack };
enum class Knowledge { kLiveness, kStale };

/// Routing behaviour knobs; value type, cheap to copy.
struct RouterConfig {
  Sidedness sidedness = Sidedness::kTwoSided;
  StuckPolicy stuck_policy = StuckPolicy::kTerminate;
  Knowledge knowledge = Knowledge::kLiveness;
  /// Number of recently visited nodes kept for backtracking (paper: 5).
  std::size_t backtrack_window = 5;
  /// Random-reroute attempts before giving up (the paper reroutes once).
  std::size_t max_reroutes = 1;
  /// Hop budget; 0 selects an automatic budget of max(64, 8·⌈lg n⌉²) hops,
  /// far above any successful search.
  std::size_t ttl = 0;
  /// Record the sequence of visited nodes in RouteResult::path.
  bool record_path = false;
  /// Force the scalar selection table even where the vectorized scan is
  /// eligible. Results are identical by construction; tests and benches use
  /// this to pin SIMD against scalar on one host.
  bool force_scalar = false;
  /// Optional distrust mask (failure/reputation.h). When set, candidate
  /// selection skips neighbours the table currently distrusts — a byte
  /// sideband gathered as a third lane mask of the masked-SIMD scan next to
  /// the link/node liveness masks, with the scalar table as fallback. The
  /// table must be over the same graph and outlive the router; while its
  /// distrusted_count() is zero the mask costs nothing (the intact kernels
  /// dispatch). Distrust *biases* selection, it does not partition
  /// reachability: callers wanting a fallback route through distrusted
  /// nodes keep a second Router without the table (see core::SecureRouter).
  const failure::ReputationTable* reputation = nullptr;
};

/// Outcome of one routed search.
struct RouteResult {
  enum class Status { kDelivered, kStuck, kTtlExpired };
  Status status = Status::kStuck;
  /// Messages sent: every forward hop, reroute hop and backtrack return.
  std::size_t hops = 0;
  /// Backtrack returns taken (subset of hops).
  std::size_t backtracks = 0;
  /// Random reroutes consumed.
  std::size_t reroutes = 0;
  /// FailureView::epoch() at the moment the search terminated. Static views
  /// leave this 0; under delta-log churn (churn::Replay) it buckets each
  /// outcome against the churn timeline.
  std::uint64_t completion_epoch = 0;
  /// Visited nodes, when RouterConfig::record_path is set (src first).
  std::vector<graph::NodeId> path;

  [[nodiscard]] bool delivered() const noexcept {
    return status == Status::kDelivered;
  }
};

/// One search request of a batch: route from node `src` to the node nearest
/// `target`.
struct Query {
  graph::NodeId src = 0;
  metric::Point target = 0;
};

/// Shape of the software-pipelined batch: `width` searches in flight in a
/// rotating ring. A lane's next header is prefetched by its previous select
/// a full rotation ahead; each scheduler tick additionally prefetches the
/// select extent (OverlayGraph::select_extent: compact stream or standard
/// spill tail, plus the 64 bytes a full-width vector load reaches past its
/// end) of the lane `prefetch_distance` positions ahead before advancing the
/// current lane, so every line its select loads is resident by the time its
/// turn comes around. 0 disables that second level; a distance >= the ring
/// skips it. Neither changes a result, and neither picks the select kernel:
/// the pipeline resolves that once per advance() from the router and view.
struct BatchConfig {
  std::size_t width = 32;
  std::size_t prefetch_distance = 4;
  /// Optional per-query outcome metrics (core/route_telemetry.h). Resolved
  /// once at pipeline construction — the tick loop pays one predictable
  /// branch per *retired query*, nothing per hop — and compiled out entirely
  /// under P2P_TELEMETRY=OFF. Null = off. The bundle's Recorder shard must
  /// belong to the thread running the batch.
  RouteTelemetry* telemetry = nullptr;
  /// Optional sampled flight recorder (telemetry/flight_recorder.h). The
  /// buffer must be owned by the thread running the batch; sampled lanes
  /// append one HopRecord per transmission. Null = off.
  telemetry::TraceBuffer* trace = nullptr;
};

/// True when this CPU runs the vectorized selection and its compact-stream
/// decode (x86 with AVX-512F, BW and VL).
[[nodiscard]] bool simd_decode_supported() noexcept;

/// Decodes compact node u's links into out (>= out_degree(u) slots) with the
/// vectorized selection's 16-slot decode step when the CPU supports it, and
/// OverlayGraph::decode_links otherwise. Returns true when the vector decode
/// ran. Precondition: g.compact(). Results always equal g.neighbors(u).
bool decode_links_simd(const graph::OverlayGraph& g, graph::NodeId u,
                       graph::NodeId* out) noexcept;

/// Stateless greedy router over a graph + failure view.
///
/// The router never mutates the graph or the view, so a single (graph, view)
/// pair can serve any number of concurrent route() calls (one Rng per
/// caller).
class Router {
 public:
  /// The referenced graph and view must outlive the router. Throws
  /// std::invalid_argument when config asks for one-sided routing over a
  /// graph whose metric is not one-dimensional (see Sidedness above).
  Router(const graph::OverlayGraph& g, const failure::FailureView& view,
         RouterConfig config = {});

  /// Routes a message from node `src` to the node nearest `target`.
  ///
  /// Preconditions: src < graph size, space contains target. The result is
  /// kDelivered only if the message reached the node whose position is
  /// nearest to `target` among all nodes (dead or alive — callers pick live
  /// targets; a dead target makes delivery impossible by definition).
  [[nodiscard]] RouteResult route(graph::NodeId src, metric::Point target,
                                  util::Rng& rng) const;

  /// Routes `queries` through the software-pipelined batch scheduler,
  /// writing results[i] for queries[i]. Preconditions as route() for every
  /// query; results must be at least as long as queries.
  ///
  /// Draws exactly one value `base` from `rng`; query i then runs on the
  /// private stream util::substream(base, i), so results[i] is bit-identical
  /// to route(queries[i].src, queries[i].target, util::substream(base, i))
  /// regardless of batch width, prefetch distance or interleaving.
  void route_batch(std::span<const Query> queries, std::span<RouteResult> results,
                   util::Rng& rng, const BatchConfig& batch = {}) const;

  /// Streaming selection: the rank-th entry of candidates(u, target)
  /// (0 = best) without materializing the list, or kInvalidNode when fewer
  /// than rank+1 candidates exist. Allocation-free; O((rank+1)·degree).
  /// Preconditions, unchecked on this hot path: u < graph size, space
  /// contains target (candidates() checks both).
  [[nodiscard]] graph::NodeId select_candidate(graph::NodeId u, metric::Point target,
                                               std::size_t rank) const noexcept;

  /// Live neighbours of u strictly closer to `target`, best first (ties by
  /// position). With Knowledge::kStale, candidates ignore node aliveness.
  /// With RouterConfig::reputation set, currently-distrusted neighbours are
  /// filtered exactly as in select_candidate. Reference implementation for
  /// select_candidate; allocates — tests and analysis only, never the hot
  /// path. Throws std::out_of_range when u >= graph size and
  /// std::invalid_argument when the space does not contain `target`.
  [[nodiscard]] std::vector<graph::NodeId> candidates(graph::NodeId u,
                                                      metric::Point target) const;

  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const failure::FailureView& view() const noexcept { return *view_; }

  /// The hop budget every search gets: config().ttl, or the automatic one.
  [[nodiscard]] std::size_t effective_ttl() const noexcept { return ttl_; }

  /// True when this (graph, config, CPU) combination dispatches the
  /// vectorized selection — every rank, intact and failure-masked variants
  /// alike.
  /// Informational (benches, tests asserting the fast path is actually
  /// exercised); selection results never depend on it.
  [[nodiscard]] bool simd_eligible() const noexcept { return simd_ok_; }

 private:
  const graph::OverlayGraph* graph_;
  const failure::FailureView* view_;
  RouterConfig config_;
  std::size_t ttl_;  // effective_ttl(), fixed at construction
  /// True when this (graph, config, CPU) combination takes the vectorized
  /// selection fast path (see simd_eligible()).
  bool simd_ok_ = false;
};

/// One in-flight search, advanced a single message transmission at a time.
///
/// The session re-reads the failure view on every step, so views mutated
/// between steps (churn during a search) are honoured — exactly what the
/// churn replays need.
class RouteSession {
 public:
  using RouterType = Router;
  using ResultType = RouteResult;

  /// Preconditions as Router::route.
  RouteSession(const Router& router, graph::NodeId src, metric::Point target);

  enum class State { kInTransit, kDelivered, kStuck, kTtlExpired };

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool finished() const noexcept { return state_ != State::kInTransit; }
  [[nodiscard]] graph::NodeId current() const noexcept { return current_; }
  [[nodiscard]] graph::NodeId target_node() const noexcept { return target_node_; }

  /// Rebinds the session to a fresh search (preconditions as the
  /// constructor), reusing the trail and path buffers — the batch pipeline's
  /// lane-refill path. Never allocates unless record_path is set.
  void restart(graph::NodeId src, metric::Point target);

  /// Advances until the next physical message transmission or a terminal
  /// state. Returns the node the message moved to, or std::nullopt when the
  /// session ended (check state()). Each returned hop is one unit of
  /// delivery time. Allocation-free except record_path. Selects through
  /// Router::select_candidate, which picks the kernel variant on every call
  /// (a BatchPipeline walk fixes it once per advance instead).
  std::optional<graph::NodeId> step(util::Rng& rng) {
    return step(rng, [r = router_](graph::NodeId u, metric::Point goal, std::size_t rank) {
      return r->select_candidate(u, goal, rank);
    });
  }

  /// step() with select(u, goal, rank) in place of select_candidate; it
  /// must return what select_candidate would. Visible here so the batch
  /// pipeline's walks and the single-stream entry points compile against the
  /// one implementation and stay bit-identical per query.
  template <class Select>
  std::optional<graph::NodeId> step(util::Rng& rng, const Select& select) {
    if (state_ != State::kInTransit) return std::nullopt;
    const RouterConfig& cfg = router_->config();
    const graph::OverlayGraph& g = router_->graph();

    while (budget_ > 0) {
      --budget_;
      if (current_ == target_node_) {
        return finish(State::kDelivered, RouteResult::Status::kDelivered);
      }
      if (interim_ && current_ == interim_node_) {
        interim_.reset();  // reached the detour node; resume toward the target
        cursor_ = 0;
        continue;
      }
      const metric::Point goal = interim_ ? *interim_ : final_goal_;
      graph::NodeId next = select(current_, goal, cursor_);
      if (next != graph::kInvalidNode && cfg.knowledge == Knowledge::kStale &&
          !router_->view().node_alive(next)) {
        // §6: "once a node chooses its best neighbour, it does not send the
        // message to any other link" — a dead pick means this node is stuck.
        next = graph::kInvalidNode;
      }

      if (next != graph::kInvalidNode) {
        if (cfg.stuck_policy == StuckPolicy::kBacktrack) {
          trail_.push(current_, cursor_ + 1);
        }
        last_rank_ = static_cast<std::uint32_t>(cursor_);
        current_ = next;
        cursor_ = 0;
        ++result_.hops;
        if (cfg.record_path) result_.path.push_back(current_);
        return current_;
      }

      // Stuck: no (further) live neighbour strictly closer to the goal.
      switch (cfg.stuck_policy) {
        case StuckPolicy::kTerminate:
          return finish(State::kStuck, RouteResult::Status::kStuck);
        case StuckPolicy::kRandomReroute: {
          if (result_.reroutes >= cfg.max_reroutes ||
              router_->view().alive_count() == 0) {
            return finish(State::kStuck, RouteResult::Status::kStuck);
          }
          ++result_.reroutes;
          interim_node_ = router_->view().random_alive(rng);
          interim_ = g.position(interim_node_);
          cursor_ = 0;
          continue;
        }
        case StuckPolicy::kBacktrack: {
          if (trail_.empty()) {
            return finish(State::kStuck, RouteResult::Status::kStuck);
          }
          const auto [prev, next_rank] = trail_.pop();
          last_rank_ = static_cast<std::uint32_t>(next_rank);
          current_ = prev;
          cursor_ = next_rank;
          ++result_.hops;  // the message physically travels back
          ++result_.backtracks;
          if (cfg.record_path) result_.path.push_back(current_);
          return current_;
        }
      }
    }
    return finish(State::kTtlExpired, RouteResult::Status::kTtlExpired);
  }

  /// Hops, backtracks, reroutes and status so far (status meaningful once
  /// finished()).
  [[nodiscard]] const RouteResult& result() const noexcept { return result_; }

  /// Candidate rank of the most recent transmission: the rank the forward
  /// hop was selected at, or the resume rank of a backtrack return.
  /// Meaningful immediately after a step that returned a node; the flight
  /// recorder stamps it into sampled hop trails.
  [[nodiscard]] std::uint32_t last_rank() const noexcept { return last_rank_; }

 private:
  /// Terminal transition shared by every exit of step: records the
  /// outcome and stamps the failure-view epoch the search ended at.
  std::optional<graph::NodeId> finish(State state,
                                      RouteResult::Status status) noexcept {
    state_ = state;
    result_.status = status;
    result_.completion_epoch = router_->view().epoch();
    return std::nullopt;
  }

  /// Fixed-capacity ring buffer of (node, next candidate rank) — the
  /// backtrack trail. Sessions under kBacktrack allocate it up front (the
  /// batch tick loop must never allocate mid-flight) at the smallest of the
  /// window, the hop budget and the graph size. A larger buffer would never
  /// evict: every push is a forward hop, so no session pushes more than
  /// effective_ttl() entries, and the trail is a chain of nodes strictly
  /// closer to the target each, so it never holds more than size() - 1.
  /// Other policies never push and carry an empty buffer.
  class Trail {
   public:
    Trail() = default;
    explicit Trail(std::size_t window) : buf_(window) {}
    /// Precondition: constructed with a window (kBacktrack sessions only).
    void push(graph::NodeId node, std::size_t rank) noexcept {
      if (count_ == buf_.size()) {
        head_ = wrap(head_ + 1);  // evict the oldest
        --count_;
      }
      buf_[wrap(head_ + count_)] = {node, rank};
      ++count_;
    }
    void clear() noexcept { head_ = count_ = 0; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::pair<graph::NodeId, std::size_t> pop() noexcept {
      --count_;
      return buf_[wrap(head_ + count_)];
    }

   private:
    /// i mod size() for i < 2·size(), which head_ + count_ always is: a
    /// subtract instead of a 64-bit divide.
    [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
      return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<std::pair<graph::NodeId, std::size_t>> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  const Router* router_;
  graph::NodeId current_;
  graph::NodeId target_node_;
  metric::Point final_goal_;
  std::optional<metric::Point> interim_;
  graph::NodeId interim_node_ = graph::kInvalidNode;
  Trail trail_;
  std::size_t cursor_ = 0;
  std::size_t budget_;
  std::uint32_t last_rank_ = 0;
  State state_ = State::kInTransit;
  RouteResult result_;
};

/// The software-pipelined ring of sessions behind Router::route_batch and
/// the churn replays, exposed so churn experiments and tests can mutate the
/// failure view (and, for secure sessions, the Byzantine set) *between
/// ticks*: sessions re-read both every step, so mid-batch churn is honoured
/// exactly as in a stepped session.
///
/// Session is RouteSession (BatchPipeline) or SecureRouteSession
/// (SecureBatchPipeline, core/secure_router.h). Each provides RouterType and
/// ResultType, a (router, src, target) constructor, restart(), step(rng),
/// finished(), result() and current() — the node its next step reads.
///
/// Keeps min(width, #queries) lanes in flight. Each tick prefetches the
/// adjacency lines of the lane `prefetch_distance` ahead in the ring (its
/// header is already resident: the select of its previous step, or the
/// construction/refill prefetch, pulled it a rotation ago), advances the
/// current lane by one step, retires it if finished, and refills the lane
/// from the pending queries (once those run out, retired lanes compact out
/// of the ring so the drain phase keeps prefetching over live lanes only).
/// After construction the tick loop performs no allocations (record_path
/// excepted).
///
/// Ticks run in bulk: advance(n, live) is the one tick loop, and tick() and
/// run() are advance(1) and advance(SIZE_MAX). The view must not change
/// within one advance, only between calls. On entry, a RouteSession ring
/// picks its select kernel variant once, through the same dispatch as
/// select_candidate, and steps every lane with it: on a simd_eligible()
/// router the AVX-512 kernel inlined into the walk, otherwise the scalar
/// table entry. A secure ring steps its sessions on their own. Results do
/// not depend on how ticks are grouped into advances.
template <class Session>
class WalkPipeline {
 public:
  using RouterType = typename Session::RouterType;
  using Result = typename Session::ResultType;

  /// Lane i of the batch runs on util::substream(seed_base, i); see
  /// Router::route_batch for the determinism contract. `queries` and
  /// `results` must outlive the pipeline; results.size() >= queries.size().
  /// BatchConfig::telemetry and ::trace are per-hop RouteSession capture;
  /// secure sessions record outcomes through SecureRouterConfig::telemetry
  /// instead, and reject them.
  WalkPipeline(const RouterType& router, std::span<const Query> queries,
               std::span<Result> results, std::uint64_t seed_base,
               const BatchConfig& config = {});

  /// Runs up to n ticks while `live` is set; each tick advances one
  /// in-flight search by one step. Clears `live` on the tick that retires
  /// the last query (that tick counts; with no query at all, the one tick
  /// finds the ring empty). Returns the ticks run.
  std::size_t advance(std::size_t n, bool& live);

  /// One tick. Returns false once every query has retired (the final
  /// retiring tick included).
  bool tick() {
    bool live = true;
    advance(1, live);
    return live;
  }

  /// Ticks until every query has retired.
  void run() {
    bool live = true;
    advance(SIZE_MAX, live);
  }

  /// advance() calls that ran an AVX-512 kernel; 0 on a router that is not
  /// simd_eligible(). Informational (tests assert that the fused walk is
  /// exercised, and that a scalar router never takes it); results never
  /// depend on it.
  [[nodiscard]] std::size_t simd_advances() const noexcept { return simd_advances_; }

  [[nodiscard]] std::size_t in_flight() const noexcept { return lanes_.size(); }
  [[nodiscard]] std::size_t retired() const noexcept { return retired_; }
  /// The query index retired by the most recent tick that increased
  /// retired() — at most one retires per tick. Meaningful only immediately
  /// after such a tick (an advance(1)); replay drivers use it to timestamp
  /// completions.
  [[nodiscard]] std::size_t last_retired_query() const noexcept {
    return last_retired_;
  }

 private:
  /// Hop trails and per-query RouteTelemetry exist for plain sessions only.
  static constexpr bool kHopCapture = std::is_same_v<Session, RouteSession>;
  /// Matches telemetry::TraceBuffer::kNone (static_asserted in router.cpp);
  /// kept local so this header needs only the forward declaration.
  static constexpr std::uint32_t kNoTrail = ~std::uint32_t{0};

  /// The tick loop behind advance(): up to n ticks, each stepping a
  /// RouteSession with `select` as its selector (a secure session steps on
  /// its own and ignores it). Defined in router.cpp.
  template <class Select>
  std::size_t walk(std::size_t n, bool& live, const Select& select);

  struct Lane {
    Session session;
    util::Rng rng;
    std::size_t query = 0;
    std::uint32_t trail = kNoTrail;  // flight-recorder handle, when sampled
  };

  /// The retired query's outcome metric and trace end, when either capture
  /// is on. Out of line and cold, so the flattened walks share one copy; the
  /// attributes sit here because `flatten` ignores a noinline placed on the
  /// out-of-class definition.
  [[gnu::cold, gnu::noinline]] void capture_retired(const Lane& lane);

  const RouterType* router_;
  std::span<const Query> queries_;
  std::span<Result> results_;
  std::uint64_t seed_base_;
  std::size_t prefetch_distance_;
  RouteTelemetry* telemetry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  std::vector<Lane> lanes_;     // every lane in the ring is in flight
  std::size_t cursor_ = 0;      // ring position of the lane advanced next
  std::size_t next_query_ = 0;  // first query not yet assigned to a lane
  std::size_t retired_ = 0;
  std::size_t last_retired_ = 0;
  std::size_t simd_advances_ = 0;
};

/// Both instantiations live in router.cpp. The RouteSession one stays out
/// of line so the code generated for its tick does not depend on callers.
extern template class WalkPipeline<RouteSession>;
using BatchPipeline = WalkPipeline<RouteSession>;

}  // namespace p2p::core
