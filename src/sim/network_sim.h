// Per-hop message latency for simulated-time measurements.
//
// The quorum store (store/quorum_store.h) draws every routed sub-query's
// latency from this model. The header keeps its old name because the
// benchmark rigs include it by this path; moving the model beside the store
// waits for a change that may also edit the benchmark.
#pragma once

#include "util/rng.h"

namespace p2p::sim {

/// Per-hop latency: uniform in [min_ms, max_ms].
struct LatencyModel {
  double min_ms = 1.0;
  double max_ms = 1.0;

  [[nodiscard]] double sample(util::Rng& rng) const noexcept {
    return min_ms + (max_ms - min_ms) * rng.next_double();
  }
};

}  // namespace p2p::sim
