// Lock-free metric registry: cache-line-padded per-shard cells with wait-free
// shard-local recording and merge-on-demand snapshots.
//
// Usage contract:
//   1. Register metrics (counter/gauge/histogram) single-threaded, up front.
//   2. Hand each writer thread its own Recorder via recorder(shard). A shard
//      must have at most one writer at a time; distinct shards never contend.
//   3. Record on the hot path: every Recorder operation is a handful of
//      relaxed atomic ops on the shard's own cache lines — wait-free, no
//      branches on shared state.
//   4. snapshot() merges all shards on demand and may run concurrently with
//      recording; counter values across successive snapshots are monotone.
//
// Compile-out gate: building with -DP2P_TELEMETRY_COMPILED_OUT=1 (CMake
// option P2P_TELEMETRY=OFF) turns every Recorder operation into an empty
// inline body, so instrumented call sites cost nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"

#if !defined(P2P_TELEMETRY_COMPILED_OUT)
#define P2P_TELEMETRY_COMPILED_OUT 0
#endif

namespace p2p::telemetry {

/// True when recording bodies are compiled in (default). The runtime knob
/// (P2P_TELEMETRY env var) is layered on top by simply not wiring sinks.
inline constexpr bool kCompiledIn = (P2P_TELEMETRY_COMPILED_OUT == 0);

inline constexpr std::uint32_t kInvalidCell = ~std::uint32_t{0};

/// Typed handles returned at registration. Cheap value types; a
/// default-constructed handle is inert (recording through it is a no-op).
struct Counter {
  std::uint32_t cell = kInvalidCell;
};
struct Gauge {
  std::uint32_t cell = kInvalidCell;  // [cell] = value, [cell+1] = update count
};
struct Histogram {
  std::uint32_t cell = kInvalidCell;  // bins, then one trailing sum cell
  std::uint32_t index = 0;            // registry histogram-descriptor index
};

/// One cache line of cells; shards are padded to block boundaries so two
/// shards never share a line.
struct alignas(64) CellBlock {
  std::atomic<std::uint64_t> w[8];
};

class Registry;

/// Shard-bound write handle. Safe to copy; all copies write the same shard.
/// A default-constructed Recorder drops everything.
class Recorder {
 public:
  Recorder() = default;

  void add(Counter c, std::uint64_t n = 1) noexcept {
    if constexpr (!kCompiledIn) {
      (void)c, (void)n;
      return;
    } else {
      if (base_ == nullptr || c.cell == kInvalidCell) return;
      bump(c.cell, n);
    }
  }

  void set(Gauge g, std::uint64_t v) noexcept {
    if constexpr (!kCompiledIn) {
      (void)g, (void)v;
      return;
    } else {
      if (base_ == nullptr || g.cell == kInvalidCell) return;
      cell(g.cell).store(v, std::memory_order_relaxed);
      bump(g.cell + 1, 1);
    }
  }

  /// Keeps the running minimum of observed values (single writer per shard,
  /// so a plain read-compare-store is race-free against the snapshot reader).
  void set_min(Gauge g, std::uint64_t v) noexcept {
    if constexpr (!kCompiledIn) {
      (void)g, (void)v;
      return;
    } else {
      if (base_ == nullptr || g.cell == kInvalidCell) return;
      auto& val = cell(g.cell);
      auto& upd = cell(g.cell + 1);
      if (upd.load(std::memory_order_relaxed) == 0 ||
          v < val.load(std::memory_order_relaxed))
        val.store(v, std::memory_order_relaxed);
      bump(g.cell + 1, 1);
    }
  }

  /// Keeps the running maximum of observed values.
  void set_max(Gauge g, std::uint64_t v) noexcept {
    if constexpr (!kCompiledIn) {
      (void)g, (void)v;
      return;
    } else {
      if (base_ == nullptr || g.cell == kInvalidCell) return;
      auto& val = cell(g.cell);
      auto& upd = cell(g.cell + 1);
      if (upd.load(std::memory_order_relaxed) == 0 ||
          v > val.load(std::memory_order_relaxed))
        val.store(v, std::memory_order_relaxed);
      bump(g.cell + 1, 1);
    }
  }

  void observe(Histogram h, std::uint64_t value, std::uint64_t weight = 1) noexcept;

  [[nodiscard]] bool attached() const noexcept { return base_ != nullptr; }

 private:
  friend class Registry;
  Recorder(CellBlock* base, const Registry* reg) : base_(base), registry_(reg) {}

  [[nodiscard]] std::atomic<std::uint64_t>& cell(std::uint32_t i) noexcept {
    return base_[i >> 3].w[i & 7];
  }

  /// Single-writer increment: the shard contract (one writer per shard at a
  /// time) makes a relaxed load/add/store coherent without the lock-prefixed
  /// RMW a fetch_add would emit — a plain add on x86, several times cheaper
  /// on the routing hot path. The writer's stores hit each cell in program
  /// order, so snapshot-observed counter values stay monotone.
  void bump(std::uint32_t i, std::uint64_t n) noexcept {
    auto& c = cell(i);
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  CellBlock* base_ = nullptr;
  const Registry* registry_ = nullptr;
};

/// Merged view of one gauge across shards (only shards that ever set it).
struct GaugeAggregate {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  std::uint64_t updates = 0;
  [[nodiscard]] bool set() const noexcept { return updates > 0; }
};

/// Merged view of one histogram across shards. Self-contained copy: owns its
/// edges and counts, so it stays valid after the registry changes or dies.
struct HistogramAggregate {
  std::vector<std::uint64_t> edges;   // log_bucket_edges layout
  std::vector<std::uint64_t> counts;  // counts.size() == edges.size() - 1
  std::uint64_t total = 0;
  std::uint64_t sum = 0;

  [[nodiscard]] double quantile(double q) const {
    return util::quantile_from_log_bins(edges, counts, total, q);
  }
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double mean() const {
    return total == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(total);
  }
};

/// Point-in-time merge of every metric, isolated from later recording.
/// `epoch_lo`/`epoch_hi` name the churn-epoch range the snapshot covers
/// (caller-provided; 0/0 when the workload is epoch-free).
struct Snapshot {
  std::uint64_t epoch_lo = 0;
  std::uint64_t epoch_hi = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeAggregate>> gauges;
  std::vector<std::pair<std::string, HistogramAggregate>> histograms;

  [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
  [[nodiscard]] const GaugeAggregate* gauge(std::string_view name) const;
  [[nodiscard]] const HistogramAggregate* histogram(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t dflt = 0) const;
};

class Registry {
 public:
  /// `shards` is the number of independent writer slots (typically the worker
  /// count). Must be >= 1.
  explicit Registry(std::size_t shards);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration (single-threaded, before seal). Names must be unique;
  /// convention is dotted lowercase, e.g. "route.hops". Throws
  /// std::invalid_argument on duplicates or registration after seal().
  Counter counter(std::string name);
  Gauge gauge(std::string name);
  /// Log-bucketed histogram over [1, max_value]; values above max_value fold
  /// into the last bin, value 0 clamps to 1 (util::log_bucket_index).
  Histogram histogram(std::string name, double base = 2.0,
                      std::uint64_t max_value = std::uint64_t{1} << 20);

  /// Freezes the metric set and allocates the shard cells (idempotent;
  /// recorder() seals implicitly). Safe to call from several threads at
  /// once: the first call allocates, the others wait for it.
  void seal();
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }

  /// Write handle for one shard (0 <= shard < shard_count()). Service
  /// workers call this concurrently at job start.
  [[nodiscard]] Recorder recorder(std::size_t shard);

  /// Merge-on-demand snapshot; safe while writers are recording.
  [[nodiscard]] Snapshot snapshot(std::uint64_t epoch_lo = 0,
                                  std::uint64_t epoch_hi = 0) const;

  [[nodiscard]] std::span<const std::uint64_t> histogram_edges(std::uint32_t index) const {
    return hist_edges_[index];
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Desc {
    std::string name;
    Kind kind;
    std::uint32_t cell;        // first cell within a shard
    std::uint32_t cells;       // cells per shard
    std::uint32_t hist_index;  // into hist_edges_ (histograms only)
  };

  std::uint32_t allocate(std::string name, Kind kind, std::uint32_t ncells,
                         std::uint32_t hist_index);
  [[nodiscard]] std::uint64_t read_cell(std::size_t shard, std::uint32_t i) const {
    return blocks_[shard * blocks_per_shard_ + (i >> 3)].w[i & 7].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] bool live() const noexcept { return blocks_ != nullptr; }

  std::size_t shards_;
  std::once_flag seal_once_;
  bool sealed_ = false;
  std::uint32_t next_cell_ = 0;
  std::vector<Desc> descs_;
  std::vector<std::vector<std::uint64_t>> hist_edges_;
  std::size_t blocks_per_shard_ = 0;
  /// shards_ * blocks_per_shard_ blocks, zeroed at seal(). A raw array, not
  /// a vector: atomics are neither copyable nor movable.
  std::unique_ptr<CellBlock[]> blocks_;
};

inline void Recorder::observe(Histogram h, std::uint64_t value,
                              std::uint64_t weight) noexcept {
  if constexpr (!kCompiledIn) {
    (void)h, (void)value, (void)weight;
    return;
  } else {
    if (base_ == nullptr || h.cell == kInvalidCell) return;
    const auto edges = registry_->histogram_edges(h.index);
    const std::size_t bins = edges.size() - 1;
    const std::size_t bin = util::log_bucket_index(edges, value);
    bump(h.cell + static_cast<std::uint32_t>(bin), weight);
    bump(h.cell + static_cast<std::uint32_t>(bins), value * weight);
  }
}

}  // namespace p2p::telemetry
