// File sharing — the workload that motivates the paper's introduction
// (Napster's central index, Gnutella's floods) served by the replicated
// object store over the routing core.
//
//   $ ./file_sharing
//
// A swarm of peers publishes song files into a quorum-replicated store
// (store/quorum_store.h): every track lives on the k=3 peers nearest its
// hashed point, puts and gets are routed quorum operations (W=R=2), and
// peers crash without warning under a Poisson churn trace. Timeout/failover
// keeps the catalog available through the churn; hinted handoff and
// anti-entropy sweeps restore full replication afterwards — no central
// server and no flooding.
#include <cstdio>
#include <string>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "store/quorum_store.h"
#include "store/store_replay.h"
#include "util/rng.h"

int main() {
  using namespace p2p;

  // A 4096-peer ring, 8 long links per peer, bidirectional (§2: links are
  // address knowledge).
  constexpr std::uint64_t kPeers = 4096;
  graph::BuildSpec spec;
  spec.grid_size = kPeers;
  spec.topology = metric::Space::Kind::kRing;
  spec.long_links = 8;
  spec.bidirectional = true;
  util::Rng rng(42);
  const graph::OverlayGraph swarm = graph::build_overlay(spec, rng);
  std::printf("swarm bootstrapped: %llu peers, %zu links each\n",
              static_cast<unsigned long long>(swarm.size()),
              swarm.neighbors(0).size());

  // Every track is replicated on k=3 peers; reads and writes are quorum 2.
  store::QuorumConfig qcfg;  // k=3, R=2, W=2
  store::QuorumStore store(swarm, qcfg);
  core::RouterConfig router_cfg;
  router_cfg.stuck_policy = core::StuckPolicy::kBacktrack;

  // Publish the catalog from random peers over the healthy swarm.
  const std::vector<std::string> artists{"aspnes", "diamadi", "shah",
                                         "kleinberg", "plaxton"};
  failure::FailureView view = failure::FailureView::all_alive(swarm);
  std::vector<store::Op> puts;
  for (int track = 0; track < 400; ++track) {
    store::Op op;
    op.type = store::OpType::kPut;
    op.client = view.random_alive(rng);
    op.key = artists[static_cast<std::size_t>(track) % artists.size()] +
             "-track-" + std::to_string(track) + ".mp3";
    op.value = "audio-bytes-of-" + op.key;
    puts.push_back(std::move(op));
  }
  std::vector<store::OpResult> results(puts.size());
  {
    const core::Router router(swarm, view, router_cfg);
    store.run_batch(router, puts, results, /*seed_base=*/7);
  }
  std::size_t published = 0;
  std::uint64_t publish_msgs = 0;
  for (const auto& res : results) {
    if (res.ok) {
      ++published;
      publish_msgs += res.hops;
    }
  }
  std::printf(
      "published %zu/400 tracks on %zu replicas each, "
      "mean publish cost %.1f messages\n",
      published, qcfg.k,
      static_cast<double>(publish_msgs) / static_cast<double>(published));

  // Lookups from random entry points on the healthy swarm.
  std::vector<store::Op> gets;
  for (int i = 0; i < 500; ++i) {
    store::Op op;
    op.type = store::OpType::kGet;
    op.client = view.random_alive(rng);
    op.key = puts[rng.next_below(puts.size())].key;
    gets.push_back(std::move(op));
  }
  results.assign(gets.size(), store::OpResult{});
  {
    const core::Router router(swarm, view, router_cfg);
    store.run_batch(router, gets, results, /*seed_base=*/8);
  }
  std::size_t served = 0;
  std::uint64_t lookup_msgs = 0;
  for (const auto& res : results) {
    if (res.ok && res.found) {
      ++served;
      lookup_msgs += res.hops;
    }
  }
  std::printf(
      "healthy swarm: %zu/500 lookups served, mean %.1f messages "
      "(no floods, no server)\n",
      served,
      static_cast<double>(lookup_msgs) / static_cast<double>(served));

  // Peers crash and return without warning: a Poisson churn trace replayed
  // against the same store — lookups and publishes continue throughout,
  // failing over past dead replicas.
  churn::TraceSpec trace_spec = churn::default_spec(
      churn::TraceSpec::Scenario::kPoissonChurn, /*duration=*/200.0, kPeers);
  util::Rng trace_rng(19);
  const churn::ChurnLog trace = churn::make_trace(swarm, trace_spec, trace_rng);

  store::StoreReplayConfig replay_cfg;
  replay_cfg.keys = 128;  // a second catalog, preloaded by the replay
  replay_cfg.ops_per_ms = 10.0;
  replay_cfg.router = router_cfg;
  replay_cfg.seed = 3;
  const store::StoreReplayStats churned =
      store::replay_store(store, trace, replay_cfg);

  std::printf(
      "churn trace: %llu epochs, %zu ops (%.2f%% served, %zu failovers, "
      "%zu hinted writes delivered)\n",
      static_cast<unsigned long long>(churned.epochs), churned.ops(),
      100.0 * churned.availability(), churned.failovers,
      churned.hints_delivered);
  std::printf(
      "after the churn: %zu keys degraded, %zu lost outright, "
      "%.1f%% of the repairable restored by %zu anti-entropy sweeps "
      "(%.0f ms recovery window)\n",
      churned.degraded_keys, churned.lost_keys,
      100.0 * churned.recovered_fraction(), churned.sweeps_used,
      churned.recovery_ms);

  return churned.availability() >= 0.95 ? 0 : 1;
}
