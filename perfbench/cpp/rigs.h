// The perfbench rigs: each one owns the state of one kind of timed round and
// calls the library only through its public entry points.
//
//  * LookupRig  — RoutingService::route_all over a static failure view, and
//                 the same queries through a single-thread Router::route_batch.
//  * ReplayRig  — one churn::Replay of a fixed trace per round, from epoch 0.
//  * StoreRig   — a churn writer step (forget, FailureView::apply, publish,
//                 deliver_hints) followed by StoreService::run_all (or a
//                 single-thread QuorumStore::run_batch).
//  * SelectProbe, ApplyProbe, PlacementProbe — per-layer probes of
//                 Router::select_candidate, FailureView::apply and
//                 store::replica_set.
//
// Every rig draws its inputs from the seed it is given, so a seed fixes every
// query, op and trace. Rigs also carry the output checks of their layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_log.h"
#include "churn/replay.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "service/routing_service.h"
#include "service/store_service.h"
#include "service/view_publisher.h"
#include "store/quorum_store.h"
#include "tracer.h"

namespace perfbench {

/// User-facing outcomes of a fixed set of rounds. They are simulated (hops,
/// LatencyModel milliseconds), so they repeat exactly for a seed and never
/// depend on how many rounds a machine fits into a run.
struct Outcomes {
  std::uint64_t ops = 0;          ///< searches, or quorum operations
  std::uint64_t searches = 0;     ///< routed searches (store: replica sub-queries)
  std::uint64_t undelivered = 0;  ///< searches that failed (store: lost or timed out)
  std::uint64_t messages = 0;     ///< routed messages, backtracks included
  std::uint64_t failed_quorums = 0;
  /// Delivered searches (store: successful quorum ops) by routed hops.
  std::vector<std::uint64_t> hops_hist;
  std::vector<double> get_latency_ms;
  std::vector<double> put_latency_ms;

  void add_hops(std::uint64_t hops);
};

/// Result of one output check.
struct Check {
  std::string name;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::string detail;
};

/// A seed derived from the run's seed for one purpose (`tag`).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

class LookupRig {
 public:
  struct Params {
    std::size_t queries = 32768;  ///< per round
    std::size_t sets = 8;         ///< distinct query sets, used in turn
    p2p::core::RouterConfig router;
    std::uint64_t seed = 1;
  };

  /// Draws `sets` sets of uniform live (source, target) pairs over `view`
  /// and starts a 2-worker RoutingService on a publisher of `view`.
  LookupRig(const p2p::graph::OverlayGraph& g, const p2p::failure::FailureView& view,
            const Params& params);

  /// One RoutingService::route_all over query set `round % sets`.
  void service_round(Tracer& t, std::size_t round, Outcomes* out);
  /// The same query set through a single-thread Router::route_batch.
  void single_round(Tracer& t, std::size_t round);
  /// A seeded sample of service results equals Router::route on the same
  /// util::substream.
  [[nodiscard]] Check check();

  std::uint64_t routed = 0;
  std::uint64_t messages = 0;
  std::uint64_t backtracks = 0;

 private:
  p2p::failure::FailureView view_;
  Params params_;
  std::vector<std::vector<p2p::core::Query>> sets_;
  std::vector<p2p::core::RouteResult> results_;
  std::vector<p2p::core::RouteResult> single_results_;
  std::vector<double> single_hops_;  // per set, once known
  p2p::core::Router router_;
  p2p::service::ViewPublisher publisher_;
  p2p::service::RoutingService service_;
};

class ReplayRig {
 public:
  struct Params {
    std::size_t queries = 4096;
    double ticks_per_ms = 256.0;
    std::uint64_t seed = 1;
  };

  /// Searches route with the default RouterConfig (kTerminate).
  ReplayRig(const p2p::graph::OverlayGraph& g, const p2p::churn::ChurnLog& log,
            const Params& params);

  /// One single-threaded churn::Replay of the whole trace from epoch 0.
  void round(Tracer& t, Outcomes* out);
  /// Every round's ReplayStats equal round 1's, and routed == queries.
  [[nodiscard]] Check check() const;

  std::uint64_t rounds = 0;
  std::uint64_t routed = 0;
  std::uint64_t ticks = 0;

 private:
  const p2p::graph::OverlayGraph* g_;
  const p2p::churn::ChurnLog* log_;
  Params params_;
  std::optional<p2p::churn::ReplayStats> first_;
  std::uint64_t bad_rounds_ = 0;
};

class StoreRig {
 public:
  struct Params {
    std::size_t keys = 65536;  ///< preloaded keyspace
    std::size_t ops = 4096;    ///< client ops per round, 70 % gets
    /// Rounds walk the trace from here to its end and back again.
    std::size_t start_epoch = 0;
    std::uint64_t seed = 1;
  };

  /// Positions a view at `start_epoch`, preloads the keyspace and starts a
  /// 2-worker StoreService.
  StoreRig(const p2p::graph::OverlayGraph& g, const p2p::churn::ChurnLog& log,
           const Params& params, Tracer& t);

  /// Writer step (forget killed nodes' replicas, apply one delta, publish,
  /// deliver hints), then one batch of client ops through StoreService
  /// (or, `single`, through QuorumStore::run_batch on this thread).
  void round(Tracer& t, bool single, Outcomes* out);
  /// After deliver_hints and repair_sweep, gets of a seeded sample of keys
  /// return the latest committed version unless the key has no live copy.
  [[nodiscard]] Check check();

  [[nodiscard]] p2p::failure::FailureView& view() { return publisher_.writer_view(); }

  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t subqueries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t answered = 0;  ///< acks + responses
  std::uint64_t stale = 0;

 private:
  [[nodiscard]] p2p::failure::FailureDelta next_delta();
  void make_ops();

  const p2p::graph::OverlayGraph* g_;
  const p2p::churn::ChurnLog* log_;
  Params params_;
  p2p::service::ViewPublisher publisher_;
  p2p::store::QuorumStore store_;
  std::unique_ptr<p2p::service::StoreService> service_;
  std::vector<std::string> keys_;
  std::size_t epoch_;
  bool forward_ = true;
  p2p::util::Rng rng_;
  std::uint64_t values_ = 0;
  std::uint64_t rounds_ = 0;
  std::vector<p2p::store::Op> batch_;
  std::vector<p2p::store::OpResult> results_;
};

/// Router::select_candidate(u, t, 0) in both edge layouts, on an intact and
/// a failure-masked view, with the SIMD and the scalar kernel (8 variants).
class SelectProbe {
 public:
  /// Builds the other layout of `g` from the same spec and seed.
  SelectProbe(const p2p::graph::BuildSpec& spec, std::uint64_t graph_seed,
              const p2p::graph::OverlayGraph& g,
              const p2p::failure::FailureView& masked, std::uint64_t seed,
              Tracer& t);

  void round(Tracer& t);
  /// Each view's four variants (layout x kernel) select the same nodes.
  [[nodiscard]] Check check() const;
  [[nodiscard]] bool simd_dispatched() const;

 private:
  struct Variant {
    std::string name;
    std::size_t view = 0;
    std::unique_ptr<p2p::core::Router> router;
    std::vector<p2p::graph::NodeId> picks;
  };
  std::unique_ptr<p2p::graph::OverlayGraph> other_;
  std::vector<std::unique_ptr<p2p::failure::FailureView>> views_;
  std::vector<std::pair<p2p::graph::NodeId, p2p::metric::Point>> sample_;
  std::vector<Variant> variants_;
  std::size_t rounds_ = 0;
  std::uint64_t sink_ = 0;
};

/// FailureView::apply over the trace, a chunk of deltas per round.
class ApplyProbe {
 public:
  explicit ApplyProbe(const p2p::churn::ChurnLog& log) : log_(&log) {}
  void round(Tracer& t);

 private:
  const p2p::churn::ChurnLog* log_;
  std::optional<p2p::failure::FailureView> view_;
  std::size_t next_ = 0;
};

/// store::replica_set for a seeded sample of points on a live view.
class PlacementProbe {
 public:
  PlacementProbe(const p2p::failure::FailureView& view, std::uint64_t seed);
  void round(Tracer& t);

 private:
  const p2p::failure::FailureView* view_;
  std::vector<p2p::metric::Point> points_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
