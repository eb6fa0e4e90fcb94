// Concurrent store frontend (service/store_service.h) — the TSan-covered
// suite for the quorum store's threaded path:
//  * with an idle writer and distinct keys per stripe, run_all is
//    bit-identical across worker counts (the RoutingService determinism
//    contract carried over to quorum ops);
//  * a live churn writer publishing mid-run: every op still completes, every
//    executed stripe observed an exactly-published epoch, and the store's
//    stripe locks hold up under ThreadSanitizer;
//  * request_stop() before run_all drains to zero completed ops;
//  * constructor validation (graph mismatch, zero stripe).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "service/store_service.h"
#include "service/view_publisher.h"
#include "store/quorum_store.h"
#include "util/rng.h"

namespace p2p::service {
namespace {

using failure::FailureView;
using graph::NodeId;

graph::OverlayGraph ring_overlay(std::uint64_t n, std::uint64_t seed = 9) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = metric::Space::Kind::kRing;
  spec.long_links = 4;
  spec.bidirectional = true;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

/// Distinct keys per op (hence per stripe): the determinism contract's
/// precondition.
std::vector<store::Op> distinct_key_ops(const FailureView& view,
                                        std::size_t count,
                                        std::uint64_t seed = 21) {
  util::Rng rng(seed);
  std::vector<store::Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    store::Op op;
    op.type = (i % 4 == 3) ? store::OpType::kGet : store::OpType::kPut;
    op.client = view.random_alive(rng);
    op.key = "svc-" + std::to_string(i);
    op.value = "v" + std::to_string(i);
    ops.push_back(op);
  }
  return ops;
}

TEST(StoreService, ValidatesConstruction) {
  const auto g = ring_overlay(64);
  const auto other = ring_overlay(64, 10);
  ViewPublisher pub(FailureView::all_alive(g));
  store::QuorumStore mismatched(other);
  EXPECT_THROW(StoreService(pub, mismatched), std::invalid_argument);

  store::QuorumStore store(g);
  StoreServiceConfig cfg;
  cfg.stripe = 0;
  EXPECT_THROW(StoreService(pub, store, cfg), std::invalid_argument);
}

TEST(StoreService, WorkerCountsAgreeBitForBit) {
  const auto g = ring_overlay(128);
  ViewPublisher pub(FailureView::all_alive(g));
  const auto ops = distinct_key_ops(pub.writer_view(), 96);

  // Reference: single worker.
  std::vector<store::OpResult> ref(ops.size());
  {
    store::QuorumStore store(g);
    StoreServiceConfig cfg;
    cfg.workers = 1;
    cfg.stripe = 16;
    cfg.seed = 33;
    StoreService svc(pub, store, cfg);
    const StoreServiceStats stats = svc.run_all(ops, ref);
    EXPECT_EQ(stats.completed, ops.size());
    EXPECT_EQ(stats.ok, ops.size());
  }

  for (const std::size_t workers : {2u, 4u}) {
    store::QuorumStore store(g);
    StoreServiceConfig cfg;
    cfg.workers = workers;
    cfg.stripe = 16;
    cfg.seed = 33;
    StoreService svc(pub, store, cfg);
    std::vector<store::OpResult> results(ops.size());
    const StoreServiceStats stats = svc.run_all(ops, results);
    EXPECT_EQ(stats.completed, ops.size());
    EXPECT_EQ(stats.stripes, (ops.size() + 15) / 16);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(results[i].ok, ref[i].ok) << i;
      EXPECT_EQ(results[i].acks, ref[i].acks) << i;
      EXPECT_EQ(results[i].responses, ref[i].responses) << i;
      EXPECT_EQ(results[i].subqueries, ref[i].subqueries) << i;
      EXPECT_EQ(results[i].hops, ref[i].hops) << i;
      EXPECT_EQ(results[i].value, ref[i].value) << i;
      EXPECT_DOUBLE_EQ(results[i].latency_ms, ref[i].latency_ms) << i;
    }
  }
}

TEST(StoreService, RunsUnderLiveChurnWriter) {
  const auto g = ring_overlay(256);
  churn::TraceSpec spec;
  spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  spec.duration = 200.0;
  spec.batch_interval = 1.0;
  spec.kill_rate = 2.0;
  spec.revive_rate = 2.0;
  util::Rng trace_rng(17);
  const churn::ChurnLog log = churn::make_trace(g, spec, trace_rng);

  ViewPublisher pub(log.baseline());
  store::QuorumStore store(g);
  StoreServiceConfig cfg;
  cfg.workers = 4;
  cfg.stripe = 8;
  StoreService svc(pub, store, cfg);

  const auto ops = distinct_key_ops(pub.writer_view(), 256);
  std::vector<store::OpResult> results(ops.size());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Publish epochs as fast as the run consumes them; stop with the run.
    for (std::size_t e = 0; e < log.size() && !done.load(); ++e) {
      pub.writer_view().apply(log.delta(e));
      pub.publish();
      std::this_thread::yield();
    }
  });
  const StoreServiceStats stats = svc.run_all(ops, results);
  done.store(true);
  writer.join();

  EXPECT_EQ(stats.completed, ops.size());
  EXPECT_EQ(stats.stripes, ops.size() / 8);
  EXPECT_LE(stats.min_epoch, stats.max_epoch);
  EXPECT_LE(stats.max_epoch, log.size());
  // Quorum ops under churn may fail; completed results must still be sane.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_GE(results[i].subqueries, 1u) << i;
  }
}

// A stripe wider than any span is one stripe: the stripe count must not wrap
// to zero (which would report every op completed while executing none).
TEST(StoreService, StripeOfSizeMaxCompletesEveryOp) {
  const auto g = ring_overlay(64);
  ViewPublisher pub(FailureView::all_alive(g));
  store::QuorumStore store(g);
  StoreServiceConfig cfg;
  cfg.workers = 2;
  cfg.stripe = std::numeric_limits<std::size_t>::max();
  StoreService svc(pub, store, cfg);

  const auto ops = distinct_key_ops(pub.writer_view(), 32);
  std::vector<store::OpResult> results(ops.size());
  const StoreServiceStats stats = svc.run_all(ops, results);
  EXPECT_EQ(stats.completed, ops.size());
  EXPECT_EQ(stats.stripes, 1u);
  EXPECT_EQ(stats.ok, ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // An op that never ran keeps its default (not ok, no sub-queries).
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_GE(results[i].subqueries, 1u) << i;
  }
}

TEST(StoreService, RequestStopDrainsToZero) {
  const auto g = ring_overlay(64);
  ViewPublisher pub(FailureView::all_alive(g));
  store::QuorumStore store(g);
  StoreService svc(pub, store);
  svc.request_stop();
  EXPECT_TRUE(svc.stop_requested());

  const auto ops = distinct_key_ops(pub.writer_view(), 16);
  std::vector<store::OpResult> results(ops.size());
  const StoreServiceStats stats = svc.run_all(ops, results);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.ok, 0u);
}

}  // namespace
}  // namespace p2p::service
