// Quorum store (store/quorum_store.h): the replication state machine.
//  * W+R>k intersection: with static membership, every quorum read returns
//    the latest committed write — across a random interleaved put/get mix;
//  * versions are per-key monotonic and committed only on quorum;
//  * a timed-out write is lost in flight, not applied late;
//  * failover promotes standbys past dead primaries and hinted handoff
//    replays the write when the primary revives;
//  * crash amnesia + repair_sweep: a forgotten replica is re-filled from a
//    surviving holder, and a key with no surviving copy counts as lost;
//  * install/replica/latest_committed introspection, and run_batch
//    determinism (same inputs, fresh store -> bit-identical results).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/router.h"
#include "dht/hash.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "store/placement.h"
#include "store/quorum_store.h"
#include "store/store_replay.h"
#include "util/rng.h"

namespace p2p::store {
namespace {

using failure::FailureView;
using graph::NodeId;

graph::OverlayGraph ring_overlay(std::uint64_t n, std::uint64_t seed = 7) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = metric::Space::Kind::kRing;
  spec.long_links = 4;
  spec.bidirectional = true;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

core::RouterConfig robust_router() {
  core::RouterConfig cfg;
  cfg.stuck_policy = core::StuckPolicy::kBacktrack;
  return cfg;
}

std::vector<OpResult> run(QuorumStore& store, const FailureView& view,
                          std::span<const Op> ops, std::uint64_t seed = 77) {
  const core::Router router(store.graph(), view, robust_router());
  std::vector<OpResult> results(ops.size());
  store.run_batch(router, ops, results, seed);
  return results;
}

TEST(QuorumStore, ConfigValidation) {
  const auto g = ring_overlay(32);
  QuorumConfig bad;
  bad.r = 4;  // > k
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
  bad = QuorumConfig{};
  bad.w = 0;
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
  bad = QuorumConfig{};
  bad.k = kMaxReplicas;
  bad.r = bad.w = 1;
  bad.max_failovers = 1;  // k + max_failovers > kMaxReplicas
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
  bad = QuorumConfig{};
  bad.timeout_ms = 0.0;
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
}

// A non-finite op rate would size an op window by casting inf or NaN to
// std::size_t; replay_store rejects it up front.
TEST(StoreReplay, RejectsNonFiniteOpRate) {
  const auto g = ring_overlay(32);
  churn::ChurnLog log(g);
  log.kill_node(3);
  log.commit(1.0);
  StoreReplayConfig cfg;
  cfg.keys = 4;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    QuorumStore store(g);
    cfg.ops_per_ms = bad;
    EXPECT_THROW((void)replay_store(store, log, cfg), std::invalid_argument)
        << bad;
  }
  QuorumStore store(g);
  cfg.ops_per_ms = 2.0;
  const StoreReplayStats stats = replay_store(store, log, cfg);
  EXPECT_EQ(stats.ops(), 2u);
  EXPECT_EQ(stats.epochs, 1u);
}

TEST(QuorumStore, InstallPlacesOnPrimariesAndCommits) {
  const auto g = ring_overlay(64);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  const Version v = store.install(view, "alpha", "payload");
  EXPECT_EQ(v.seq, 1u);
  ASSERT_TRUE(store.latest_committed("alpha").has_value());
  EXPECT_EQ(*store.latest_committed("alpha"), v);
  EXPECT_EQ(store.key_count(), 1u);

  const auto primaries = replica_set(
      view, dht::point_for_key("alpha", g.space()), store.config().k);
  for (const NodeId p : primaries) {
    const auto rep = store.replica(p, "alpha");
    ASSERT_TRUE(rep.has_value()) << "primary " << p;
    EXPECT_EQ(rep->first, v);
    EXPECT_EQ(rep->second, "payload");
  }
  EXPECT_FALSE(store.latest_committed("beta").has_value());
}

TEST(QuorumStore, QuorumReadSeesLatestCommittedWrite) {
  // W+R>k with static membership: the read set of any get intersects the
  // write set of the latest committed put, so reads are never stale.
  const auto g = ring_overlay(128);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);  // k=3, R=2, W=2

  util::Rng rng(13);
  std::map<std::string, std::string> expected;
  std::uint64_t counter = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<Op> ops;
    for (int j = 0; j < 24; ++j) {
      Op op;
      op.key = "key-" + std::to_string(rng.next_below(6));
      op.client = view.random_alive(rng);
      if (expected.empty() || rng.next_bool(0.5)) {
        op.type = OpType::kPut;
        op.value = "val-" + std::to_string(++counter);
      }
      ops.push_back(op);
    }
    const auto results = run(store, view, ops, 1000 + round);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const OpResult& res = results[i];
      ASSERT_TRUE(res.ok) << "op " << i << " lost quorum on a static view";
      if (op.type == OpType::kPut) {
        EXPECT_EQ(res.acks, store.config().k);
        expected[op.key] = op.value;
      } else {
        EXPECT_GE(res.responses, store.config().r);
        EXPECT_FALSE(res.stale);
        const auto want = expected.find(op.key);
        if (want != expected.end()) {
          ASSERT_TRUE(res.found);
          EXPECT_EQ(res.value, want->second);
        }
      }
    }
  }
}

TEST(QuorumStore, VersionsAreMonotonicPerKey) {
  const auto g = ring_overlay(64);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  std::uint64_t last_seq = 0;
  for (int i = 0; i < 5; ++i) {
    Op op;
    op.type = OpType::kPut;
    op.client = static_cast<NodeId>(i * 7);
    op.key = "mono";
    op.value = "v" + std::to_string(i);
    const auto results = run(store, view, std::span<const Op>(&op, 1), 50 + i);
    ASSERT_TRUE(results[0].ok);
    EXPECT_GT(results[0].version.seq, last_seq);
    last_seq = results[0].version.seq;
    EXPECT_EQ(store.latest_committed("mono")->seq, last_seq);
  }
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(QuorumStore, TimedOutWriteIsLostNotApplied) {
  const auto g = ring_overlay(64);
  const auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.timeout_ms = 1e-6;  // every sub-query's latency exceeds this
  QuorumStore store(g, cfg);

  Op op;
  op.type = OpType::kPut;
  op.client = 1;
  op.key = "doomed";
  op.value = "never";
  const auto results = run(store, view, std::span<const Op>(&op, 1));
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].acks, 0u);
  // Failovers were attempted, then the op gave up.
  EXPECT_EQ(results[0].failovers, cfg.max_failovers);
  EXPECT_FALSE(store.latest_committed("doomed").has_value());
  const auto primaries = replica_set(
      view, dht::point_for_key("doomed", g.space()), cfg.k);
  for (const NodeId p : primaries) {
    EXPECT_FALSE(store.replica(p, "doomed").has_value());
  }

  // A get against the never-written key reaches quorum but finds nothing.
  Op get;
  get.type = OpType::kGet;
  get.client = 2;
  get.key = "doomed";
  QuorumStore fresh(g);
  const auto got = run(fresh, view, std::span<const Op>(&get, 1));
  EXPECT_TRUE(got[0].ok);
  EXPECT_FALSE(got[0].found);
}

TEST(QuorumStore, FailoverPastDeadPrimaryAndHintedHandoff) {
  const auto g = ring_overlay(128);
  auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  const auto point = dht::point_for_key("hinted", g.space());
  const auto primaries = replica_set(view, point, store.config().k);
  view.kill_node(primaries[0]);

  util::Rng client_rng(3);
  Op op;
  op.type = OpType::kPut;
  op.client = view.random_alive(client_rng);
  op.key = "hinted";
  op.value = "payload";
  const auto results = run(store, view, std::span<const Op>(&op, 1));
  ASSERT_TRUE(results[0].ok);
  // Placement skipped the dead primary entirely, so the put lands on the
  // k nearest *live* nodes without failing over.
  EXPECT_EQ(results[0].acks, store.config().k);
  EXPECT_FALSE(store.replica(primaries[0], "hinted").has_value());

  // Repair path back to full replication once the primary revives: the
  // sweep sees the revived (amnesiac) node as a primary missing the value.
  view.revive_node(primaries[0]);
  const SweepStats sweep = store.repair_sweep(view);
  EXPECT_EQ(sweep.degraded, 1u);
  EXPECT_EQ(sweep.repaired, 1u);
  EXPECT_EQ(sweep.lost, 0u);
  const auto rep = store.replica(primaries[0], "hinted");
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->second, "payload");
  EXPECT_EQ(store.repair_sweep(view).degraded, 0u);  // now quiescent
}

TEST(QuorumStore, UnreachablePrimaryFailsOverAndStoresHint) {
  // A sloppy-quorum write: the primary is alive (placement selects it) but
  // link-isolated (every in-link dead), so its sub-query is unreachable.
  // The op fails over to the standby, acks there, and remembers a hint for
  // the primary — delivered once the partition heals.
  const auto g = ring_overlay(128);
  auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.k = 1;
  cfg.r = 1;
  cfg.w = 1;
  QuorumStore store(g, cfg);

  const NodeId owner =
      replica_set(view, dht::point_for_key("hint-key", g.space()), 1)[0];
  std::vector<std::pair<NodeId, std::size_t>> isolated;
  for (NodeId v = 0; v < g.size(); ++v) {
    const auto neigh = g.neighbors(v);
    for (std::size_t idx = 0; idx < neigh.size(); ++idx) {
      if (neigh[idx] == owner) {
        view.kill_link(v, idx);
        isolated.emplace_back(v, idx);
      }
    }
  }
  ASSERT_FALSE(isolated.empty());

  Op op;
  op.type = OpType::kPut;
  op.client = owner == 5 ? 6 : 5;
  op.key = "hint-key";
  op.value = "x";
  const auto results = run(store, view, std::span<const Op>(&op, 1));
  ASSERT_TRUE(results[0].ok);
  EXPECT_GE(results[0].failovers, 1u);
  EXPECT_FALSE(store.replica(owner, "hint-key").has_value());
  EXPECT_EQ(store.pending_hints(), 1u);

  // Heal the partition; the hint replays the write onto the primary.
  for (const auto& [v, idx] : isolated) view.revive_link(v, idx);
  EXPECT_EQ(store.deliver_hints(view), 1u);
  EXPECT_EQ(store.pending_hints(), 0u);
  const auto rep = store.replica(owner, "hint-key");
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->second, "x");
}

TEST(QuorumStore, ForgetThenSweepRepairsFromSurvivor) {
  const auto g = ring_overlay(96);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  store.install(view, "obj", "data");
  const auto primaries =
      replica_set(view, dht::point_for_key("obj", g.space()), 3);
  store.forget(primaries[1]);
  EXPECT_FALSE(store.replica(primaries[1], "obj").has_value());

  const SweepStats sweep = store.repair_sweep(view);
  EXPECT_EQ(sweep.examined, 1u);
  EXPECT_EQ(sweep.degraded, 1u);
  EXPECT_EQ(sweep.repaired, 1u);
  ASSERT_TRUE(store.replica(primaries[1], "obj").has_value());
  EXPECT_EQ(store.replica(primaries[1], "obj")->second, "data");
}

TEST(QuorumStore, KeyWithNoSurvivingCopyCountsAsLost) {
  const auto g = ring_overlay(96);
  const auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.k = 1;
  cfg.r = cfg.w = 1;
  QuorumStore store(g, cfg);

  store.install(view, "fragile", "data");
  const auto owner =
      replica_set(view, dht::point_for_key("fragile", g.space()), 1);
  store.forget(owner[0]);

  const SweepStats sweep = store.repair_sweep(view);
  EXPECT_EQ(sweep.lost, 1u);
  EXPECT_EQ(sweep.degraded, 0u);
  EXPECT_EQ(sweep.repaired, 0u);

  // A fresh write resurrects the key; the next sweep is clean.
  store.install(view, "fragile", "data2");
  const SweepStats after = store.repair_sweep(view);
  EXPECT_EQ(after.lost, 0u);
  EXPECT_EQ(after.degraded, 0u);
}

TEST(QuorumStore, RunBatchIsDeterministic) {
  const auto g = ring_overlay(128);
  const auto view = FailureView::all_alive(g);
  util::Rng rng(5);
  std::vector<Op> ops;
  for (int i = 0; i < 40; ++i) {
    Op op;
    op.type = (i % 3 == 0) ? OpType::kGet : OpType::kPut;
    op.client = view.random_alive(rng);
    op.key = "d" + std::to_string(i % 9);
    op.value = "v" + std::to_string(i);
    ops.push_back(op);
  }

  QuorumStore a(g);
  QuorumStore b(g);
  const auto ra = run(a, view, ops, 4242);
  const auto rb = run(b, view, ops, 4242);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ra[i].ok, rb[i].ok);
    EXPECT_EQ(ra[i].acks, rb[i].acks);
    EXPECT_EQ(ra[i].responses, rb[i].responses);
    EXPECT_EQ(ra[i].subqueries, rb[i].subqueries);
    EXPECT_EQ(ra[i].hops, rb[i].hops);
    EXPECT_EQ(ra[i].version, rb[i].version);
    EXPECT_EQ(ra[i].value, rb[i].value);
    EXPECT_DOUBLE_EQ(ra[i].latency_ms, rb[i].latency_ms);
  }
}

TEST(QuorumStore, StaleDetectionAgainstDirectory) {
  // A read that observes an older-than-committed version reports stale=true:
  // v2 commits while primaries[0] is down (it keeps its v1 copy — no crash),
  // then an R=1 read under the healed view hits primaries[0] and sees v1.
  const auto g = ring_overlay(128);
  auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.r = 1;
  cfg.read_repair = false;
  QuorumStore store(g, cfg);

  const Version v1 = store.install(view, "s", "old");
  const auto primaries =
      replica_set(view, dht::point_for_key("s", g.space()), 3);
  view.kill_node(primaries[0]);
  const Version v2 = store.install(view, "s", "new");
  ASSERT_TRUE(v2.newer_than(v1));
  view.revive_node(primaries[0]);

  Op get;
  get.type = OpType::kGet;
  get.client = 9;
  get.key = "s";
  const auto results = run(store, view, std::span<const Op>(&get, 1));
  ASSERT_TRUE(results[0].ok);
  ASSERT_TRUE(results[0].found);
  EXPECT_EQ(results[0].version, v1);
  EXPECT_EQ(results[0].value, "old");
  EXPECT_TRUE(results[0].stale);
}

}  // namespace
}  // namespace p2p::store
