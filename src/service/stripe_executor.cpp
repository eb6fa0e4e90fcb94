#include "service/stripe_executor.h"

#include <algorithm>
#include <chrono>

#include "service/service_telemetry.h"

namespace p2p::service {

StripeExecutor::StripeExecutor(ViewPublisher& publisher, std::size_t workers,
                               const std::vector<int>& affinity)
    : publisher_(&publisher),
      pool_(affinity.empty() ? util::ThreadPool(workers)
                             : util::ThreadPool(affinity)) {}

void StripeExecutor::validate(const core::RouterConfig& router) {
  Reader probe = publisher_->make_reader();
  const core::Router check(publisher_->graph(), probe.pin()->view, router);
  static_cast<void>(check);
}

StripeRunStats StripeExecutor::run(std::size_t items, std::size_t stripe,
                                   const ServiceTelemetry* telemetry,
                                   const Worker& worker) {
  if (telemetry != nullptr && telemetry->registry == nullptr) telemetry = nullptr;
  // Not (items + stripe - 1) / stripe, which wraps for stripe near SIZE_MAX.
  const std::size_t stripe_count = items / stripe + (items % stripe != 0 ? 1 : 0);
  // Workers race on next_stripe only; the per-stripe slots are written by
  // the completing worker alone.
  std::atomic<std::size_t> next_stripe{0};
  std::atomic<std::size_t> stripes_done{0};
  std::vector<std::uint64_t> epoch_by_stripe(stripe_count);
  std::vector<std::uint64_t> staleness_by_stripe(stripe_count);

  const auto claim_loop = [&](std::size_t worker_index) {
    Reader reader = publisher_->make_reader();
    telemetry::Recorder rec;
    if (telemetry != nullptr) {
      rec = telemetry->registry->recorder(worker_index %
                                          telemetry->registry->shard_count());
    }
    std::uint64_t claimed = 0;
    worker(worker_index, [&](const StripeBody& body) {
      while (!stop_.load(std::memory_order_seq_cst)) {
        const std::size_t k = next_stripe.fetch_add(1, std::memory_order_relaxed);
        if (k >= stripe_count) break;
        Stripe s;
        s.index = k;
        s.begin = k * stripe;
        s.end = s.begin + std::min(stripe, items - s.begin);

        const auto pin_start = std::chrono::steady_clock::now();
        s.snapshot = reader.pin();
        const auto pin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - pin_start);
        body(s);
        const std::uint64_t epoch = s.snapshot->epoch;
        const std::uint64_t latest = publisher_->latest_epoch();
        epoch_by_stripe[k] = epoch;
        staleness_by_stripe[k] = latest > epoch ? latest - epoch : 0;
        reader.unpin();
        if (telemetry != nullptr) {
          // Record from the slots, not the snapshot — it is unpinned and may
          // already be reclaimed.
          const ServiceMetrics& m = telemetry->metrics;
          rec.add(m.stripes);
          rec.observe(m.staleness_hist, staleness_by_stripe[k]);
          rec.set_min(m.stripe_epoch_min, epoch);
          rec.set_max(m.stripe_epoch_max, epoch);
          rec.observe(m.pin_ns_hist, static_cast<std::uint64_t>(pin_ns.count()));
          rec.set(m.stripes_claimed, ++claimed);
        }
        stripes_done.fetch_add(1, std::memory_order_release);
      }
    });
    reader = Reader();  // frees the slot before the caller wakes
    std::lock_guard lock(done_mutex_);
    if (--workers_remaining_ == 0) done_cv_.notify_all();
  };

  {
    std::lock_guard lock(done_mutex_);
    workers_remaining_ = pool_.thread_count();
  }
  for (std::size_t w = 0; w < pool_.thread_count(); ++w) {
    pool_.submit([&claim_loop, w] { claim_loop(w); });
  }
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [this] { return workers_remaining_ == 0; });
  }

  StripeRunStats stats;
  stats.stripes = stripes_done.load(std::memory_order_acquire);
  // Stripes are claimed in fetch-add order and every claimed stripe is
  // completed, so the completed items are exactly the stripe-grid prefix.
  stats.completed = stats.stripes == stripe_count ? items : stats.stripes * stripe;
  if (stats.stripes > 0) {
    const auto done = static_cast<std::ptrdiff_t>(stats.stripes);
    const auto [lo, hi] =
        std::minmax_element(epoch_by_stripe.begin(), epoch_by_stripe.begin() + done);
    stats.min_epoch = *lo;
    stats.max_epoch = *hi;
    stats.staleness.assign(staleness_by_stripe.begin(),
                           staleness_by_stripe.begin() + done);
  }
  return stats;
}

}  // namespace p2p::service
