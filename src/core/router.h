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
// per-hop advance lives in RouteSession::step_inline (this header) so all
// three stay bit-identical per query.
//
// Batching exists because a single search is a serial chain of dependent
// header loads (~one cache line per hop, see overlay_graph.h): at large n the
// scalar path is bound by DRAM latency, not work. route_batch keeps W
// searches in flight and advances them round-robin, and prefetches at two
// levels so the misses of independent searches overlap instead of
// serializing: each select prefetches the header of the node it picks, a
// full rotation (~W ticks) before that lane's next step reads it; and each
// tick, once a lane's header is resident, prefetches every adjacency line
// its next select reads (the compact slot + exception stream, or a standard
// node's spill tail) `prefetch_distance` ticks ahead of its step. Per-query
// results are bit-identical to route() seeded with util::substream(base,
// query_index), independent of the interleaving.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
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
  /// this to pin SIMD against scalar on one host without mutating the
  /// process environment (P2P_NO_SIMD=1 is the env-level equivalent).
  bool force_scalar = false;
  /// Optional distrust mask (failure/reputation.h). When set, candidate
  /// selection skips neighbours the table currently distrusts — a third
  /// byte-sideband riding the masked-SIMD scan lanes next to the link/node
  /// liveness masks, with the scalar table as fallback. The table must be
  /// over the same graph and outlive the router; while its
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
/// a full rotation ahead; each scheduler tick additionally prefetches every
/// adjacency line (compact stream, or standard spill tail) of the lane
/// `prefetch_distance` positions ahead before advancing the current lane, so
/// the lines its select reads are resident by the time its turn comes
/// around. 0 disables that second level; a distance >= the ring skips it.
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

/// Largest compact-node degree the vectorized selection stages in its stack
/// buffer. Paper configurations have ℓ + 2 links per node; a node past the
/// cap (only adversarial inputs) takes the scalar kernel instead.
inline constexpr std::uint32_t kSimdDecodeCap = 256;

/// True when this CPU runs the vectorized selection and its compact-stream
/// decode (x86 with AVX-512F, BW and VL).
[[nodiscard]] bool simd_decode_supported() noexcept;

/// Decodes compact node u's links into out (>= out_degree(u) slots) the way
/// the vectorized selection does: the AVX-512 decode when the CPU supports
/// it and the degree is at most kSimdDecodeCap, OverlayGraph::decode_links
/// otherwise. Returns true when the vector decode ran. Precondition:
/// g.compact(). Results always equal g.neighbors(u).
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
  [[nodiscard]] graph::NodeId select_candidate(graph::NodeId u, metric::Point target,
                                               std::size_t rank) const noexcept;

  /// Live neighbours of u strictly closer to `target`, best first (ties by
  /// position). With Knowledge::kStale, candidates ignore node aliveness.
  /// With RouterConfig::reputation set, currently-distrusted neighbours are
  /// filtered exactly as in select_candidate. Reference implementation for
  /// select_candidate; allocates — tests and analysis only, never the hot
  /// path.
  [[nodiscard]] std::vector<graph::NodeId> candidates(graph::NodeId u,
                                                      metric::Point target) const;

  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const failure::FailureView& view() const noexcept { return *view_; }

  [[nodiscard]] std::size_t effective_ttl() const noexcept;

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
  /// delivery time.
  std::optional<graph::NodeId> step(util::Rng& rng);

  /// Body of step(), visible here so the batch pipeline's tick loop and the
  /// single-stream entry points compile against the one implementation and
  /// stay bit-identical per query. Allocation-free except record_path.
  std::optional<graph::NodeId> step_inline(util::Rng& rng) {
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
      graph::NodeId next = router_->select_candidate(current_, goal, cursor_);
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
  [[nodiscard]] const RouteResult& progress() const noexcept { return result_; }

  /// Candidate rank of the most recent transmission: the rank the forward
  /// hop was selected at, or the resume rank of a backtrack return.
  /// Meaningful immediately after a step that returned a node; the flight
  /// recorder stamps it into sampled hop trails.
  [[nodiscard]] std::uint32_t last_rank() const noexcept { return last_rank_; }

 private:
  /// Terminal transition shared by every exit of step_inline: records the
  /// outcome and stamps the failure-view epoch the search ended at.
  std::optional<graph::NodeId> finish(State state,
                                      RouteResult::Status status) noexcept {
    state_ = state;
    result_.status = status;
    result_.completion_epoch = router_->view().epoch();
    return std::nullopt;
  }

  /// Fixed-capacity ring buffer of (node, next candidate rank) — the
  /// backtrack trail. Sessions under kBacktrack allocate the full window up
  /// front (the batch tick loop must never allocate mid-flight); other
  /// policies never push and carry an empty buffer.
  class Trail {
   public:
    Trail() = default;
    explicit Trail(std::size_t window) : buf_(window) {}
    /// Precondition: constructed with a window (kBacktrack sessions only).
    void push(graph::NodeId node, std::size_t rank) noexcept {
      if (count_ == buf_.size()) {
        head_ = (head_ + 1) % buf_.size();  // evict the oldest
        --count_;
      }
      buf_[(head_ + count_) % buf_.size()] = {node, rank};
      ++count_;
    }
    void clear() noexcept { head_ = count_ = 0; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::pair<graph::NodeId, std::size_t> pop() noexcept {
      --count_;
      return buf_[(head_ + count_) % buf_.size()];
    }

   private:
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

/// The software-pipelined batch scheduler behind Router::route_batch,
/// exposed so churn experiments and tests can mutate the failure view
/// *between ticks* (sessions re-read the view every step, so mid-batch churn
/// is honoured exactly as in RouteSession).
///
/// Keeps min(width, #queries) lanes in flight. Each tick prefetches the
/// adjacency lines of the lane `prefetch_distance` ahead in the ring (its
/// header is already resident: the select of its previous step, or the
/// construction/refill prefetch, pulled it a rotation ago), advances the
/// current lane by one message transmission, retires it if finished, and
/// refills the lane from the pending queries (once those run out, retired
/// lanes compact out of the ring so the drain phase keeps prefetching over
/// live lanes only). After construction the tick loop performs no
/// allocations (record_path excepted).
class BatchPipeline {
 public:
  /// Lane i of the batch runs on util::substream(seed_base, i); see
  /// Router::route_batch for the determinism contract. `queries` and
  /// `results` must outlive the pipeline; results.size() >= queries.size().
  BatchPipeline(const Router& router, std::span<const Query> queries,
                std::span<RouteResult> results, std::uint64_t seed_base,
                const BatchConfig& config = {});

  /// Advances one in-flight search by one transmission. Returns false once
  /// every query has retired (the final retiring advance included).
  bool tick();

  /// Ticks until every query has retired.
  void run() {
    while (tick()) {
    }
  }

  [[nodiscard]] std::size_t in_flight() const noexcept { return lanes_.size(); }
  [[nodiscard]] std::size_t retired() const noexcept { return retired_; }

 private:
  /// Matches telemetry::TraceBuffer::kNone (static_asserted in router.cpp);
  /// kept local so this header needs only the forward declaration.
  static constexpr std::uint32_t kNoTrail = ~std::uint32_t{0};

  struct Lane {
    RouteSession session;
    util::Rng rng;
    std::size_t query = 0;
    std::uint32_t trail = kNoTrail;  // flight-recorder handle, when sampled
  };

  const Router* router_;
  std::span<const Query> queries_;
  std::span<RouteResult> results_;
  std::uint64_t seed_base_;
  std::size_t prefetch_distance_;
  RouteTelemetry* telemetry_ = nullptr;
  telemetry::TraceBuffer* trace_ = nullptr;
  std::vector<Lane> lanes_;     // every lane in the ring is in flight
  std::size_t cursor_ = 0;      // ring position of the lane advanced next
  std::size_t next_query_ = 0;  // first query not yet assigned to a lane
  std::size_t retired_ = 0;
};

}  // namespace p2p::core
