// Unit tests for the simulator substrate: event queue, hop simulator,
// workloads, and the multi-trial driver.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/hop_simulator.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::sim {
namespace {

using failure::FailureView;
using graph::BuildSpec;
using graph::NodeId;
using graph::OverlayGraph;

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakInSubmissionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilLeavesLaterEventsQueued) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RejectsSchedulingIntoThePast) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, ResetDiscardsPendingAndRewindsClock) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(9.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0.0);
  // Scheduling "into the past" of the old clock is legal again.
  q.schedule(0.5, [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 0.5);
}

OverlayGraph test_graph(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  return graph::build_overlay(spec, rng);
}

TEST(HopSimulator, BatchAggregatesAreConsistent) {
  const auto g = test_graph(512, 5, 8);
  const auto view = FailureView::all_alive(g);
  const core::Router router(g, view);
  util::Rng rng(9);
  const BatchResult batch = run_batch(router, 500, rng);
  EXPECT_EQ(batch.messages, 500u);
  EXPECT_EQ(batch.delivered, 500u);  // no failures: greedy always delivers
  EXPECT_EQ(batch.failed(), 0u);
  EXPECT_DOUBLE_EQ(batch.failure_fraction(), 0.0);
  EXPECT_GT(batch.hops_success.mean(), 1.0);
  EXPECT_LT(batch.hops_success.mean(), 64.0);
}

TEST(HopSimulator, FailuresShowUpInTheBatch) {
  const auto g = test_graph(512, 5, 10);
  util::Rng fail_rng(11);
  const auto view = FailureView::with_node_failures(g, 0.5, fail_rng);
  const core::Router router(g, view);
  util::Rng rng(12);
  const BatchResult batch = run_batch(router, 500, rng);
  EXPECT_GT(batch.failed(), 0u);
  EXPECT_EQ(batch.delivered + batch.failed(), 500u);
}

TEST(HopSimulator, MergeCombinesCounts) {
  BatchResult a, b;
  a.messages = 10;
  a.delivered = 9;
  a.stuck = 1;
  a.hops_success.add(5.0);
  b.messages = 5;
  b.delivered = 5;
  b.hops_success.add(7.0);
  a.merge(b);
  EXPECT_EQ(a.messages, 15u);
  EXPECT_EQ(a.delivered, 14u);
  EXPECT_EQ(a.hops_success.count(), 2u);
}

TEST(Workload, RandomLivePairAvoidsDeadAndEqualNodes) {
  const auto g = test_graph(64, 2, 13);
  util::Rng rng(14);
  auto view = FailureView::with_node_failures(g, 0.5, rng);
  for (int i = 0; i < 500; ++i) {
    const auto [src, dst] = random_live_pair(view, rng);
    EXPECT_NE(src, dst);
    EXPECT_TRUE(view.node_alive(src));
    EXPECT_TRUE(view.node_alive(dst));
  }
}

TEST(Workload, PoissonGapsHaveTheRightMean) {
  PoissonProcess proc{0.5};
  util::Rng rng(15);
  double sum = 0.0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) sum += proc.next_gap(rng);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.05);  // mean gap = 1/rate
}

TEST(Workload, ChurnTraceIsConsistent) {
  util::Rng rng(16);
  const auto space = metric::Space1D::ring(256);
  std::vector<metric::Point> initial{10, 20, 30, 40, 50};
  const auto trace = make_churn_trace(space, initial, 0.5, 0.2, 0.2, 200.0, rng);
  ASSERT_FALSE(trace.empty());
  std::set<metric::Point> occupied(initial.begin(), initial.end());
  double prev = 0.0;
  for (const ChurnEvent& ev : trace) {
    EXPECT_GE(ev.when, prev);
    prev = ev.when;
    if (ev.kind == ChurnEvent::Kind::kJoin) {
      EXPECT_FALSE(occupied.contains(ev.position));
      occupied.insert(ev.position);
    } else {
      EXPECT_TRUE(occupied.contains(ev.position));
      occupied.erase(ev.position);
    }
  }
}

TEST(Workload, ChurnTraceRejectsNonFiniteInputs) {
  // An infinite duration never ends the event loop, and an infinite rate
  // draws zero gaps so the clock never advances: both must be refused.
  util::Rng rng(17);
  const auto space = metric::Space1D::ring(64);
  const std::vector<metric::Point> initial{1, 2, 3, 4};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto trace = [&](double join, double leave, double crash,
                         double duration) {
    static_cast<void>(
        make_churn_trace(space, initial, join, leave, crash, duration, rng));
  };
  for (const double bad : {inf, nan, -1.0}) {
    EXPECT_THROW(trace(0.1, 0.1, 0.1, bad), std::invalid_argument);
    EXPECT_THROW(trace(bad, 0.1, 0.1, 10.0), std::invalid_argument);
    EXPECT_THROW(trace(0.1, bad, 0.1, 10.0), std::invalid_argument);
    EXPECT_THROW(trace(0.1, 0.1, bad, 10.0), std::invalid_argument);
  }
}

TEST(Experiment, TrialsAreDeterministicAndOrdered) {
  util::ThreadPool pool(4);
  const auto fn = [](std::size_t trial, util::Rng& rng) {
    return static_cast<double>(trial) + rng.next_double();
  };
  const auto a = run_trials(pool, 16, 42, fn);
  const auto b = run_trials(pool, 16, 42, fn);
  EXPECT_EQ(a, b);  // bit-identical across runs despite threading
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], static_cast<double>(i));
    EXPECT_LT(a[i], static_cast<double>(i) + 1.0);
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  util::ThreadPool pool(2);
  const auto fn = [](std::size_t, util::Rng& rng) { return rng.next_double(); };
  EXPECT_NE(run_trials(pool, 4, 1, fn), run_trials(pool, 4, 2, fn));
}

TEST(Experiment, MultiMetricsAccumulate) {
  util::ThreadPool pool(2);
  const auto rows = run_trials_multi(pool, 8, 7, [](std::size_t t, util::Rng&) {
    return std::vector<double>{static_cast<double>(t), 2.0};
  });
  const auto cols = accumulate_columns(rows);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_DOUBLE_EQ(cols[0].mean(), 3.5);  // mean of 0..7
  EXPECT_DOUBLE_EQ(cols[1].mean(), 2.0);
  EXPECT_EQ(cols[0].count(), 8u);
}

}  // namespace
}  // namespace p2p::sim
