// Shared helpers for the benchmark harnesses.
//
// Every bench binary prints the series of one paper artefact (figure or
// table). Output scale is controlled by P2P_SCALE / P2P_NODES / P2P_TRIALS /
// P2P_MESSAGES (see util/options.h); P2P_CSV=1 switches to CSV.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/construction.h"
#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "sim/experiment.h"
#include "sim/hop_simulator.h"
#include "telemetry/metric_registry.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace p2p::bench {

/// Wall-clock seconds elapsed since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or 0 where procfs is unavailable. The scale sweep
/// reports it per decade so a build's transient memory high-water mark is
/// visible next to the frozen graph's steady-state bytes.
inline std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

/// BuildSpec of the paper's §4.3 power-law ring overlay.
inline graph::BuildSpec power_law_spec(std::uint64_t n, std::size_t links,
                                       bool bidirectional = false) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  spec.bidirectional = bidirectional;
  return spec;
}

/// Ideal (one-shot) power-law overlay on a ring — the paper's §4.3 setup.
///
/// The §6 experiment benches pass bidirectional = true: §2 models links as
/// address knowledge, and once two nodes have spoken both know each other,
/// so a stored link carries traffic both ways. The §4 theorem benches keep
/// links directed (the analysis counts out-links only).
inline graph::OverlayGraph ideal_overlay(std::uint64_t n, std::size_t links,
                                         std::uint64_t seed,
                                         bool bidirectional = false) {
  util::Rng rng(seed);
  return graph::build_overlay(power_law_spec(n, links, bidirectional), rng);
}

/// §5 heuristic-constructed overlay: every grid point joins in random order.
inline core::DynamicOverlay constructed_overlay(
    std::uint64_t n, std::size_t links, std::uint64_t seed,
    core::ReplacePolicy policy = core::ReplacePolicy::kPowerLaw) {
  core::ConstructionConfig cfg;
  cfg.long_links = links;
  cfg.replace_policy = policy;
  core::DynamicOverlay overlay(metric::Space::ring(n), cfg);
  util::Rng rng(seed);
  std::vector<metric::Point> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const metric::Point p : order) overlay.join(p, rng);
  return overlay;
}

/// lg n, the paper's standard per-node link count for the experiments.
inline std::size_t lg_links(std::uint64_t n) {
  std::size_t bits = 0;
  while ((1ULL << (bits + 1)) <= n) ++bits;
  return bits < 1 ? 1 : bits;
}

/// route_batch shape from the environment: P2P_WIDTH / P2P_PREFETCH
/// override `dflt`, so width/prefetch perf sweeps run without recompiles.
inline core::BatchConfig batch_config_from_env(core::BatchConfig dflt = {}) {
  const util::ScaleOptions opts = util::scale_options_from_env();
  if (opts.batch_width != 0) dflt.width = opts.batch_width;
  if (opts.prefetch_distance != util::ScaleOptions::kUnsetPrefetch) {
    dflt.prefetch_distance = opts.prefetch_distance;
  }
  return dflt;
}

/// Thread count from the environment: P2P_THREADS overrides, 0/unset means
/// hardware concurrency — the one resolution every bench, example and the
/// routing service share.
inline std::size_t thread_count_from_env() {
  return util::scale_options_from_env().threads;
}

/// Runtime telemetry switch: true (default) wires registries/sinks into the
/// bench, P2P_TELEMETRY=0 skips the wiring entirely. Builds configured with
/// -DP2P_TELEMETRY=OFF report false regardless — recording bodies are
/// compiled out, so wiring a registry would only measure dead stores.
inline bool telemetry_enabled_from_env() {
  return telemetry::kCompiledIn && util::scale_options_from_env().telemetry;
}

/// Flight-recorder sampling period from P2P_TRACE_SAMPLE: hop trails are
/// captured for 1-in-this-many queries; 0 (the default) keeps the recorder
/// off.
inline std::size_t trace_sample_from_env() {
  return util::scale_options_from_env().trace_sample;
}

/// A ThreadPool sized by P2P_THREADS (hardware concurrency when unset).
inline util::ThreadPool pool_from_env() {
  return util::ThreadPool(thread_count_from_env());
}

/// One graph + failure view + message batch measurement — the setup block
/// previously copy-pasted across the theorem/table benches.
struct TrialSpec {
  graph::BuildSpec build;
  enum class View { kAllAlive, kLinkFailures, kNodeFailures };
  View view = View::kAllAlive;
  /// p_present for kLinkFailures, p_fail for kNodeFailures.
  double view_p = 1.0;
  core::RouterConfig router;
};

/// Builds the overlay and view of `spec`, batch-routes `messages` searches
/// and returns the mean hops of successful ones; NaN when the view is
/// degenerate (fewer than two live nodes).
inline double trial_mean_hops(const TrialSpec& spec, std::size_t messages,
                              util::Rng& rng) {
  const auto g = graph::build_overlay(spec.build, rng);
  const auto view =
      spec.view == TrialSpec::View::kLinkFailures
          ? failure::FailureView::with_link_failures(g, spec.view_p, rng)
          : spec.view == TrialSpec::View::kNodeFailures
                ? failure::FailureView::with_node_failures(g, spec.view_p, rng)
                : failure::FailureView::all_alive(g);
  if (view.alive_count() < 2) return std::numeric_limits<double>::quiet_NaN();
  const core::Router router(g, view, spec.router);
  return sim::run_batch(router, messages, rng, batch_config_from_env())
      .hops_success.mean();
}

/// Mean of trial_mean_hops over `trials` pool-fanned trials (one
/// util::substream per trial; degenerate NaN trials are skipped).
inline double averaged_trial_hops(util::ThreadPool& pool, const TrialSpec& spec,
                                  std::size_t trials, std::size_t messages,
                                  std::uint64_t seed) {
  const auto rows =
      sim::run_trials(pool, trials, seed, [&](std::size_t, util::Rng& rng) {
        return trial_mean_hops(spec, messages, rng);
      });
  util::Accumulator acc;
  for (const double v : rows) {
    if (!std::isnan(v)) acc.add(v);
  }
  return acc.mean();
}

/// One figure-6-style measurement: fresh failure draw + message batch.
struct FailureTrialResult {
  double failed_fraction = 0.0;
  double hops_success = 0.0;  ///< 0 when no search succeeded
};

inline FailureTrialResult failure_trial(const graph::OverlayGraph& g,
                                        double p_fail, core::RouterConfig cfg,
                                        std::size_t messages, util::Rng& rng) {
  const auto view = failure::FailureView::with_node_failures(g, p_fail, rng);
  FailureTrialResult out;
  if (view.alive_count() < 2) {
    out.failed_fraction = 1.0;
    return out;
  }
  const core::Router router(g, view, cfg);
  const auto batch = sim::run_batch(router, messages, rng, batch_config_from_env());
  out.failed_fraction = batch.failure_fraction();
  out.hops_success = batch.hops_success.mean();
  return out;
}

/// As above over a freshly built overlay: the §6 "the network is set up
/// afresh" trial body (graph from `graph_seed`, failures and messages from
/// `rng`, messages batch-routed through the pipeline).
inline FailureTrialResult failure_trial(const graph::BuildSpec& build,
                                        std::uint64_t graph_seed, double p_fail,
                                        core::RouterConfig cfg,
                                        std::size_t messages, util::Rng& rng) {
  util::Rng build_rng(graph_seed);
  return failure_trial(graph::build_overlay(build, build_rng), p_fail, cfg,
                       messages, rng);
}

/// Prints the standard bench banner.
inline void banner(const std::string& title, std::uint64_t n, std::size_t links,
                   std::size_t trials, std::size_t messages) {
  if (util::csv_requested()) return;
  std::cout << title << "\n"
            << "  nodes=" << n << " links/node=" << links << " trials=" << trials
            << " messages/trial=" << messages << "\n"
            << "  (set P2P_SCALE=paper for the paper's full scale; "
               "P2P_NODES/P2P_TRIALS/P2P_MESSAGES override)\n";
}

/// One bench's members of BENCH_micro.json, in order, each value written as
/// the JSON number it is: an integer exactly, a real to a fixed number of
/// decimals.
struct JsonSection {
  std::vector<std::pair<std::string, std::string>> members;

  void add(const std::string& key, std::uint64_t value) {
    members.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, double value, int decimals) {
    std::string text(static_cast<std::size_t>(
                         std::snprintf(nullptr, 0, "%.*f", decimals, value)),
                     '\0');
    std::snprintf(text.data(), text.size() + 1, "%.*f", decimals, value);
    members.emplace_back(key, std::move(text));
  }
};

/// Merges `section` into the flat JSON object at `path`, which every bench
/// writes one top-level member per line. The members whose keys start with
/// `prefix` are this bench's: they are replaced where the first of them
/// stood (appended when there were none), and every other member keeps its
/// place, so the benches may run and rerun in any order. A missing file
/// becomes a document that starts with "bench": `who`. `who` also prefixes
/// the error message when the file cannot be written.
inline void merge_json_section(const char* path, const std::string& who,
                               const std::string& prefix, const JsonSection& section) {
  std::vector<std::string> members;
  std::size_t at = std::string::npos;  // where this bench's members go
  if (std::FILE* f = std::fopen(path, "rb")) {
    std::string text;
    char buf[4096];
    for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;) text.append(buf, got);
    std::fclose(f);
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("  \"", 0) != 0) continue;  // the braces
      if (line.back() == ',') line.pop_back();
      if (line.compare(3, prefix.size(), prefix) == 0) {
        if (at == std::string::npos) at = members.size();
      } else {
        members.push_back(std::move(line));
      }
    }
  }
  if (members.empty()) members.push_back("  \"bench\": \"" + who + "\"");
  if (at == std::string::npos) at = members.size();
  std::vector<std::string> mine;
  for (const auto& [key, value] : section.members) {
    mine.push_back("  \"" + key + "\": " + value);
  }
  members.insert(members.begin() + static_cast<std::ptrdiff_t>(at), mine.begin(), mine.end());
  std::string out = "{\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    out += members[i];
    out += i + 1 < members.size() ? ",\n" : "\n";
  }
  out += "}\n";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", who.c_str(), path);
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

}  // namespace p2p::bench
