#include "rigs.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/event_queue.h"
#include "sim/network_sim.h"
#include "store/placement.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace p2p;

namespace {

/// Worker threads of every service the rigs start (the benchmark's cap).
constexpr std::size_t kWorkers = 2;

/// Share of gets among a store round's ops.
constexpr double kReadFraction = 0.7;

/// Per-hop latency of routed searches: the store's own default model, so
/// search and quorum latencies are in the same simulated milliseconds.
const sim::LatencyModel kHopLatency = store::QuorumConfig{}.latency;

/// Name of a round span: `.traced` marks rounds run with layer spans on.
std::string round_name(const Tracer& t, const char* kind) {
  return std::string("round.") + kind + (t.layers() ? ".traced" : "");
}

/// Folds one routed search into `out`; `lat_rng` draws its hop latencies.
void add_search(Outcomes& out, const core::RouteResult& r, util::Rng lat_rng) {
  ++out.ops;
  ++out.searches;
  out.messages += r.hops;
  if (!r.delivered()) {
    ++out.undelivered;
    return;
  }
  out.add_hops(r.hops);
  double ms = 0.0;
  for (std::size_t h = 0; h < r.hops; ++h) ms += kHopLatency.sample(lat_rng);
  // A routing-only search is the routing leg every get and put pays.
  out.get_latency_ms.push_back(ms);
  out.put_latency_ms.push_back(ms);
}

bool same_route(const core::RouteResult& a, const core::RouteResult& b) {
  return a.status == b.status && a.hops == b.hops &&
         a.backtracks == b.backtracks && a.reroutes == b.reroutes;
}

}  // namespace

void Outcomes::add_hops(std::uint64_t hops) {
  if (hops_hist.size() <= hops) hops_hist.resize(hops + 1, 0);
  ++hops_hist[hops];
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return util::splitmix64(seed + 0x9e3779b97f4a7c15ULL * (tag + 1));
}

// ---------------------------------------------------------------------------
// LookupRig

namespace {

service::ServiceConfig service_config(const LookupRig::Params& p) {
  service::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.router = p.router;
  cfg.seed = p.seed;
  return cfg;
}

}  // namespace

LookupRig::LookupRig(const graph::OverlayGraph& g, const failure::FailureView& view,
                     const Params& params)
    : view_(view),
      params_(params),
      router_(g, view_, params.router),
      publisher_(view),
      service_(publisher_, service_config(params)) {
  util::Rng rng(derive_seed(params.seed, 0));
  sets_.resize(params.sets);
  for (auto& set : sets_) {
    set.resize(params.queries);
    for (core::Query& q : set) {
      q.src = view_.random_alive(rng);
      q.target = g.position(view_.random_alive(rng));
    }
  }
  single_hops_.assign(params.sets, -1.0);
}

void LookupRig::service_round(Tracer& t, std::size_t round, Outcomes* out) {
  const std::size_t s = round % sets_.size();
  std::vector<core::RouteResult>& res = results_;
  res.resize(sets_[s].size());
  auto span = t.round(round_name(t, "lookup"));
  {
    auto call = t.layer("service.route_all");
    const service::ServiceStats stats = service_.route_all(sets_[s], res);
    call.ops(static_cast<double>(stats.routed));
    span.ops(static_cast<double>(stats.routed));
  }
  span.end();
  for (const core::RouteResult& r : res) {
    ++routed;
    messages += r.hops;
    backtracks += r.backtracks;
  }
  if (out != nullptr) {
    const std::uint64_t lat_base = derive_seed(params_.seed, 1);
    for (std::size_t i = 0; i < res.size(); ++i) {
      add_search(*out, res[i], util::substream(lat_base, s * res.size() + i));
    }
  }
}

void LookupRig::single_round(Tracer& t, std::size_t round) {
  const std::size_t s = round % sets_.size();
  single_results_.resize(sets_[s].size());
  util::Rng rng(derive_seed(params_.seed, 100 + s));
  auto span = t.round(round_name(t, "lookup_single"));
  auto call = t.layer("core.route_batch");
  router_.route_batch(sets_[s], single_results_, rng);
  call.end();
  span.end();
  if (single_hops_[s] < 0.0) {
    double hops = 0.0;
    for (const core::RouteResult& r : single_results_) hops += static_cast<double>(r.hops);
    single_hops_[s] = hops;
  }
  call.ops(static_cast<double>(sets_[s].size()));
  call.units(single_hops_[s]);
  span.ops(static_cast<double>(sets_[s].size()));
}

Check LookupRig::check() {
  Check c;
  c.name = "lookup: RoutingService results equal Router::route";
  std::vector<core::RouteResult>& res = results_;
  res.resize(sets_[0].size());
  static_cast<void>(service_.route_all(sets_[0], res));
  const std::size_t stripe = service_.config().stripe;
  util::Rng pick(derive_seed(params_.seed, 3));
  for (std::size_t k = 0; k < 512; ++k) {
    const std::size_t i = pick.next_below(res.size());
    util::Rng rng = util::substream(
        service::RoutingService::stripe_seed_base(params_.seed, i / stripe), i % stripe);
    const core::RouteResult want = router_.route(sets_[0][i].src, sets_[0][i].target, rng);
    ++c.checked;
    if (!same_route(want, res[i])) ++c.mismatches;
  }
  return c;
}

// ---------------------------------------------------------------------------
// ReplayRig

ReplayRig::ReplayRig(const graph::OverlayGraph& g, const churn::ChurnLog& log,
                     const Params& params)
    : g_(&g), log_(&log), params_(params) {}

void ReplayRig::round(Tracer& t, Outcomes* out) {
  auto span = t.round(round_name(t, "replay"));
  failure::FailureView view = log_->baseline();
  const core::Router router(*g_, view);
  sim::EventQueue queue;
  churn::ReplayConfig cfg;
  cfg.queries = params_.queries;
  cfg.ticks_per_ms = params_.ticks_per_ms;
  cfg.seed = params_.seed;
  churn::Replay replay(router, *log_, view, queue, cfg);
  churn::ReplayStats stats;
  {
    auto call = t.layer("churn.replay");
    stats = replay.run();
    call.ops(static_cast<double>(stats.routed));
    call.units(static_cast<double>(stats.ticks));
  }
  span.ops(static_cast<double>(stats.routed));
  span.units(static_cast<double>(stats.ticks));
  span.end();

  ++rounds;
  routed += stats.routed;
  ticks += stats.ticks;
  if (!first_) first_ = stats;
  const churn::ReplayStats& f = *first_;
  const bool same = stats.deltas_applied == f.deltas_applied &&
                    stats.ticks == f.ticks && stats.routed == f.routed &&
                    stats.delivered == f.delivered &&
                    stats.mean_hops_delivered == f.mean_hops_delivered &&
                    stats.final_epoch == f.final_epoch && stats.sim_end == f.sim_end;
  if (!same || stats.routed != params_.queries) ++bad_rounds_;

  if (out != nullptr) {
    const std::uint64_t lat_base = derive_seed(params_.seed, 1);
    const auto results = replay.results();
    for (std::size_t i = 0; i < results.size(); ++i) {
      add_search(*out, results[i], util::substream(lat_base, i));
    }
  }
}

Check ReplayRig::check() const {
  Check c;
  c.name = "replay: every round's ReplayStats equal round 1's, routed == queries";
  c.checked = rounds;
  c.mismatches = rounds == 0 ? 1 : bad_rounds_;
  return c;
}

// ---------------------------------------------------------------------------
// StoreRig

namespace {

/// The trace's view at `epoch`, which must lie before its end so rounds have
/// a delta to walk.
failure::FailureView view_at(const churn::ChurnLog& log, std::size_t epoch, Tracer& t) {
  if (epoch >= log.size()) {
    throw std::invalid_argument("StoreRig: start_epoch must lie inside the trace");
  }
  failure::FailureView view = log.baseline();
  auto span = t.layer("failure.seek");
  for (std::size_t e = 0; e < epoch; ++e) view.apply(log.delta(e));
  return view;
}

}  // namespace

StoreRig::StoreRig(const graph::OverlayGraph& g, const churn::ChurnLog& log,
                   const Params& params, Tracer& t)
    : g_(&g),
      log_(&log),
      params_(params),
      publisher_(view_at(log, params.start_epoch, t)),
      store_(g),
      epoch_(params.start_epoch),
      rng_(derive_seed(params.seed, 0)) {
  keys_.reserve(params.keys);
  for (std::size_t i = 0; i < params.keys; ++i) keys_.push_back("obj-" + std::to_string(i));
  {
    auto span = t.layer("store.install");
    for (const std::string& key : keys_) {
      std::string value = "v0-";
      value += key;
      static_cast<void>(store_.install(publisher_.writer_view(), key, value));
    }
    span.ops(static_cast<double>(keys_.size()));
  }
  service::StoreServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.seed = params.seed;
  auto span = t.layer("service.construct");
  service_ = std::make_unique<service::StoreService>(publisher_, store_, cfg);
}

failure::FailureDelta StoreRig::next_delta() {
  if (forward_ && epoch_ == log_->size()) forward_ = false;
  if (!forward_ && epoch_ == params_.start_epoch) forward_ = true;
  if (forward_) return log_->delta(epoch_++);
  // Walking back: the inverse of the delta that produced this epoch.
  const failure::FailureDelta& d = log_->delta(--epoch_);
  failure::FailureDelta back;
  back.when = d.when;
  back.node_kills = d.node_revives;
  back.node_revives = d.node_kills;
  back.link_kills = d.link_revives;
  back.link_revives = d.link_kills;
  return back;
}

void StoreRig::make_ops() {
  const failure::FailureView& view = publisher_.writer_view();
  batch_.resize(params_.ops);
  for (store::Op& op : batch_) {
    op.type = rng_.next_bool(kReadFraction) ? store::OpType::kGet : store::OpType::kPut;
    op.client = view.random_alive(rng_);
    op.key = keys_[rng_.next_below(keys_.size())];
    if (op.type == store::OpType::kPut) {
      char value[24];
      std::snprintf(value, sizeof value, "v%llu",
                    static_cast<unsigned long long>(++values_));
      op.value = value;
    } else {
      op.value.clear();
    }
  }
  results_.assign(batch_.size(), store::OpResult{});
}

void StoreRig::round(Tracer& t, bool single, Outcomes* out) {
  const std::string name = round_name(t, single ? "store_single" : "store");
  const failure::FailureDelta delta = next_delta();
  {
    // Writer step. Crash amnesia precedes the view flip, as in
    // store::replay_store: the replicas die with the node.
    auto span = t.round(name);
    {
      auto call = t.layer("store.forget");
      for (const graph::NodeId u : delta.node_kills) store_.forget(u);
      call.ops(static_cast<double>(delta.node_kills.size()));
    }
    {
      auto call = t.layer("writer.apply");
      publisher_.writer_view().apply(delta);
      call.ops(static_cast<double>(delta.change_count()));
    }
    {
      auto call = t.layer("service.publish");
      static_cast<void>(publisher_.publish());
    }
    {
      auto call = t.layer("store.deliver_hints");
      call.ops(static_cast<double>(store_.deliver_hints(publisher_.writer_view())));
    }
  }
  make_ops();  // client-side input generation, outside the timed spans
  const std::uint64_t seed = derive_seed(params_.seed, 100 + rounds_++);
  {
    auto span = t.round(name);
    if (single) {
      auto call = t.layer("store.run_batch");
      const core::Router router(*g_, publisher_.writer_view(), service_->config().router);
      store_.run_batch(router, batch_, results_, seed);
      call.ops(static_cast<double>(batch_.size()));
    } else {
      auto call = t.layer("service.run_all");
      call.ops(static_cast<double>(service_->run_all(batch_, results_).completed));
    }
    span.ops(static_cast<double>(batch_.size()));
  }

  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const store::OpResult& r = results_[i];
    const bool get = batch_[i].type == store::OpType::kGet;
    ++ops;
    gets += get ? 1 : 0;
    subqueries += r.subqueries;
    failovers += r.failovers;
    answered += r.acks + r.responses;
    stale += r.stale ? 1 : 0;
    if (out == nullptr) continue;
    ++out->ops;
    out->searches += r.subqueries;
    out->undelivered += r.subqueries - r.acks - r.responses;
    out->messages += r.hops;
    if (!r.ok) {
      ++out->failed_quorums;
      continue;
    }
    out->add_hops(r.hops);
    (get ? out->get_latency_ms : out->put_latency_ms).push_back(r.latency_ms);
  }
}

Check StoreRig::check() {
  Check c;
  c.name = "store: gets after deliver_hints + repair_sweep return latest_committed";
  failure::FailureView& view = publisher_.writer_view();
  static_cast<void>(store_.deliver_hints(view));
  const store::SweepStats sweep = store_.repair_sweep(view);

  core::RouterConfig rc;
  rc.stuck_policy = core::StuckPolicy::kBacktrack;
  const core::Router router(*g_, view, rc);
  util::Rng rng(derive_seed(params_.seed, 1));
  std::vector<std::string> sample;
  for (std::size_t k = 0; k < 2048; ++k) sample.push_back(keys_[rng.next_below(keys_.size())]);

  // A get is retried from two more clients before it counts as wrong: the
  // check is about the data, not about one client's route.
  std::vector<std::size_t> pending(sample.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  for (std::size_t attempt = 0; attempt < 3 && !pending.empty(); ++attempt) {
    std::vector<store::Op> gets(pending.size());
    for (std::size_t j = 0; j < pending.size(); ++j) {
      gets[j].type = store::OpType::kGet;
      gets[j].client = view.random_alive(rng);
      gets[j].key = sample[pending[j]];
    }
    std::vector<store::OpResult> res(gets.size());
    store_.run_batch(router, gets, res, derive_seed(params_.seed, 10 + attempt));
    std::vector<std::size_t> still;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const auto latest = store_.latest_committed(gets[j].key);
      // At least the latest committed version: a put that missed its quorum
      // may have left a newer one behind on some replica.
      const bool good = latest && res[j].ok && res[j].found && !res[j].stale &&
                        !latest->newer_than(res[j].version);
      if (!good) still.push_back(pending[j]);
    }
    pending.swap(still);
  }
  // What remains must be lost: no live node holds the latest committed version.
  std::size_t lost = 0;
  for (const std::size_t i : pending) {
    const auto latest = store_.latest_committed(sample[i]);
    bool live_copy = false;
    for (graph::NodeId u = 0; u < g_->size() && !live_copy && latest; ++u) {
      if (!view.node_alive(u)) continue;
      const auto rep = store_.replica(u, sample[i]);
      live_copy = rep && !latest->newer_than(rep->first);
    }
    if (live_copy || !latest) {
      ++c.mismatches;
    } else {
      ++lost;
    }
  }
  if (lost > sweep.lost) ++c.mismatches;
  c.checked = sample.size();
  c.detail = "sweep lost " + std::to_string(sweep.lost) + " of " +
             std::to_string(sweep.examined) + " keys; " + std::to_string(lost) +
             " sampled keys lost";
  return c;
}

// ---------------------------------------------------------------------------
// Probes

SelectProbe::SelectProbe(const graph::BuildSpec& spec, std::uint64_t graph_seed,
                         const graph::OverlayGraph& g,
                         const failure::FailureView& masked, std::uint64_t seed,
                         Tracer& t) {
  graph::BuildSpec other = spec;
  other.layout = spec.layout == graph::EdgeLayout::kCompact ? graph::EdgeLayout::kStandard
                                                            : graph::EdgeLayout::kCompact;
  {
    auto span = t.layer("graph.build_other_layout");
    util::ThreadPool pool(kWorkers);
    util::Rng rng(graph_seed);
    other_ = std::make_unique<graph::OverlayGraph>(graph::build_overlay(other, rng, pool));
  }
  const graph::OverlayGraph* graphs[2] = {&g, other_.get()};
  const graph::EdgeLayout layouts[2] = {spec.layout, other.layout};
  for (const graph::OverlayGraph* gr : graphs) {
    views_.push_back(std::make_unique<failure::FailureView>(failure::FailureView::all_alive(*gr)));
    auto m = std::make_unique<failure::FailureView>(failure::FailureView::all_alive(*gr));
    for (graph::NodeId u = 0; u < gr->size(); ++u) {
      if (!masked.node_alive(u)) m->kill_node(u);
    }
    views_.push_back(std::move(m));
  }
  util::Rng rng(seed);
  sample_.resize(4096);
  for (auto& [u, target] : sample_) {
    u = masked.random_alive(rng);
    target = g.position(static_cast<graph::NodeId>(rng.next_below(g.size())));
  }
  for (std::size_t gi = 0; gi < 2; ++gi) {
    const char* layout = layouts[gi] == graph::EdgeLayout::kCompact ? "compact" : "standard";
    for (std::size_t masked_view = 0; masked_view < 2; ++masked_view) {
      for (const bool scalar : {false, true}) {
        core::RouterConfig rc;
        rc.force_scalar = scalar;
        Variant v;
        v.name = std::string("core.select.") + layout + (masked_view ? ".masked" : ".intact") +
                 (scalar ? ".scalar" : ".simd");
        v.view = masked_view;
        v.router = std::make_unique<core::Router>(*graphs[gi], *views_[2 * gi + masked_view], rc);
        variants_.push_back(std::move(v));
      }
    }
  }
}

void SelectProbe::round(Tracer& t) {
  for (std::size_t k = 0; k < variants_.size(); ++k) {
    Variant& v = variants_[(k + rounds_) % variants_.size()];
    const bool keep = v.picks.empty();
    std::uint64_t sum = 0;
    {
      auto span = t.layer(v.name);
      for (const auto& [u, target] : sample_) {
        const graph::NodeId pick = v.router->select_candidate(u, target, 0);
        sum += pick;
        if (keep) v.picks.push_back(pick);
      }
      span.ops(static_cast<double>(sample_.size()));
    }
    sink_ += sum;
  }
  ++rounds_;
}

Check SelectProbe::check() const {
  Check c;
  c.name = "select: standard == compact and simd == scalar on each view";
  for (const Variant& v : variants_) {
    for (const Variant& ref : variants_) {
      if (ref.view != v.view) continue;
      c.checked += v.picks.size();
      if (v.picks != ref.picks || v.picks.empty()) ++c.mismatches;
      break;
    }
  }
  return c;
}

bool SelectProbe::simd_dispatched() const { return variants_.front().router->simd_eligible(); }

void ApplyProbe::round(Tracer& t) {
  constexpr std::size_t kChunk = 256;
  if (!view_ || next_ == log_->size()) {
    view_.emplace(log_->baseline());
    next_ = 0;
  }
  const std::size_t end = std::min(next_ + kChunk, log_->size());
  std::size_t changes = 0;
  auto span = t.layer("failure.apply");
  for (; next_ < end; ++next_) {
    const failure::FailureDelta& d = log_->delta(next_);
    view_->apply(d);
    changes += d.change_count();
  }
  span.ops(static_cast<double>(changes));
}

PlacementProbe::PlacementProbe(const failure::FailureView& view, std::uint64_t seed)
    : view_(&view) {
  util::Rng rng(seed);
  const graph::OverlayGraph& g = view.graph();
  points_.resize(4096);
  for (metric::Point& p : points_) {
    p = g.position(static_cast<graph::NodeId>(rng.next_below(g.size())));
  }
}

void PlacementProbe::round(Tracer& t) {
  auto span = t.layer("store.placement");
  for (const metric::Point p : points_) {
    sink_ += store::replica_set(*view_, p, store::QuorumConfig{}.k).front();
  }
  span.ops(static_cast<double>(points_.size()));
}

}  // namespace perfbench
