#include "telemetry/metric_registry.h"

#include <algorithm>

#include "util/require.h"

namespace p2p::telemetry {

namespace {

template <class Vec>
auto* find_named(Vec& v, std::string_view name) {
  for (auto& [n, value] : v)
    if (n == name) return &value;
  return static_cast<decltype(&v.front().second)>(nullptr);
}

}  // namespace

const std::uint64_t* Snapshot::counter(std::string_view name) const {
  return find_named(counters, name);
}

const GaugeAggregate* Snapshot::gauge(std::string_view name) const {
  return find_named(gauges, name);
}

const HistogramAggregate* Snapshot::histogram(std::string_view name) const {
  return find_named(histograms, name);
}

std::uint64_t Snapshot::counter_or(std::string_view name, std::uint64_t dflt) const {
  const auto* c = counter(name);
  return c != nullptr ? *c : dflt;
}

Registry::Registry(std::size_t shards) : shards_(shards) {
  util::require(shards >= 1, "Registry: need at least one shard");
}

std::uint32_t Registry::allocate(std::string name, Kind kind, std::uint32_t ncells,
                                 std::uint32_t hist_index) {
  util::require(!sealed_, "Registry: cannot register after seal()");
  for (const auto& d : descs_)
    util::require(d.name != name, "Registry: duplicate metric name");
  const std::uint32_t cell = next_cell_;
  descs_.push_back(Desc{std::move(name), kind, cell, ncells, hist_index});
  next_cell_ += ncells;
  return cell;
}

Counter Registry::counter(std::string name) {
  return Counter{allocate(std::move(name), Kind::kCounter, 1, 0)};
}

Gauge Registry::gauge(std::string name) {
  return Gauge{allocate(std::move(name), Kind::kGauge, 2, 0)};
}

Histogram Registry::histogram(std::string name, double base, std::uint64_t max_value) {
  auto edges = util::log_bucket_edges(base, max_value);
  const auto bins = static_cast<std::uint32_t>(edges.size() - 1);
  const auto index = static_cast<std::uint32_t>(hist_edges_.size());
  hist_edges_.push_back(std::move(edges));
  // bins count cells plus one running-sum cell.
  return Histogram{allocate(std::move(name), Kind::kHistogram, bins + 1, index), index};
}

void Registry::seal() {
  std::call_once(seal_once_, [this] {
    blocks_per_shard_ = (next_cell_ + 7) / 8;
    if (blocks_per_shard_ == 0) blocks_per_shard_ = 1;
    const std::size_t total = shards_ * blocks_per_shard_;
    blocks_ = std::make_unique<CellBlock[]>(total);
    for (std::size_t i = 0; i < total; ++i)
      for (auto& w : blocks_[i].w) w.store(0, std::memory_order_relaxed);
    sealed_ = true;
  });
}

Recorder Registry::recorder(std::size_t shard) {
  util::require_in_range(shard < shards_, "Registry::recorder: shard out of range");
  seal();
  return Recorder{blocks_.get() + shard * blocks_per_shard_, this};
}

Snapshot Registry::snapshot(std::uint64_t epoch_lo, std::uint64_t epoch_hi) const {
  Snapshot out;
  out.epoch_lo = epoch_lo;
  out.epoch_hi = epoch_hi;
  const bool live = this->live();
  for (const auto& d : descs_) {
    switch (d.kind) {
      case Kind::kCounter: {
        std::uint64_t sum = 0;
        if (live)
          for (std::size_t s = 0; s < shards_; ++s) sum += read_cell(s, d.cell);
        out.counters.emplace_back(d.name, sum);
        break;
      }
      case Kind::kGauge: {
        GaugeAggregate agg;
        if (live) {
          for (std::size_t s = 0; s < shards_; ++s) {
            const std::uint64_t updates = read_cell(s, d.cell + 1);
            if (updates == 0) continue;
            const std::uint64_t v = read_cell(s, d.cell);
            if (agg.updates == 0) {
              agg.min = agg.max = v;
            } else {
              agg.min = std::min(agg.min, v);
              agg.max = std::max(agg.max, v);
            }
            agg.sum += v;
            agg.updates += updates;
          }
        }
        out.gauges.emplace_back(d.name, agg);
        break;
      }
      case Kind::kHistogram: {
        HistogramAggregate agg;
        agg.edges = hist_edges_[d.hist_index];
        const std::size_t bins = agg.edges.size() - 1;
        agg.counts.assign(bins, 0);
        if (live) {
          for (std::size_t s = 0; s < shards_; ++s) {
            for (std::size_t b = 0; b < bins; ++b) {
              const std::uint64_t c =
                  read_cell(s, d.cell + static_cast<std::uint32_t>(b));
              agg.counts[b] += c;
              agg.total += c;
            }
            agg.sum += read_cell(s, d.cell + static_cast<std::uint32_t>(bins));
          }
        }
        out.histograms.emplace_back(d.name, agg);
        break;
      }
    }
  }
  return out;
}

}  // namespace p2p::telemetry
