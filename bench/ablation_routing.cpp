// §4.2 / §6 ablations on the router itself:
//   (a) one-sided vs two-sided greedy routing (the two lower-bound models);
//   (b) backtrack window sweep (the paper fixes 5 — is that the knee?);
//   (c) reroute budget sweep (the paper reroutes once);
//   (d) liveness knowledge vs stale best-neighbour choice (§6's remark).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace p2p;
  const auto opts = util::scale_options_from_env();
  const std::uint64_t n = opts.resolve_nodes(1 << 12, 1 << 14);
  const std::size_t links = bench::lg_links(n);
  const std::size_t trials = opts.resolve_trials(6, 20);
  const std::size_t messages = opts.resolve_messages(200, 1000);
  bench::banner("Ablation: router variants", n, links, trials, messages);
  util::ThreadPool pool = bench::pool_from_env();

  const auto sweep = [&](const core::RouterConfig& cfg, double p_fail) {
    const auto rows = sim::run_trials_multi(
        pool, trials, opts.seed,
        [&](std::size_t trial, util::Rng& rng) {
          const auto g = bench::ideal_overlay(n, links, opts.seed + trial * 131);
          const auto res = bench::failure_trial(g, p_fail, cfg, messages, rng);
          return std::vector<double>{res.failed_fraction, res.hops_success};
        });
    const auto cols = sim::accumulate_columns(rows);
    return std::pair<double, double>{cols[0].mean(), cols[1].mean()};
  };

  // (a) one-sided vs two-sided, with and without failures.
  {
    util::Table table({"variant", "hops_p0", "failed_p0.3", "hops_p0.3"});
    for (const auto sidedness :
         {core::Sidedness::kTwoSided, core::Sidedness::kOneSided}) {
      core::RouterConfig cfg;
      cfg.sidedness = sidedness;
      const auto [f0, h0] = sweep(cfg, 0.0);
      const auto [f3, h3] = sweep(cfg, 0.3);
      table.add_row({sidedness == core::Sidedness::kTwoSided ? "two-sided"
                                                             : "one-sided",
                     util::format_double(h0, 2), util::format_double(f3, 4),
                     util::format_double(h3, 2)});
      static_cast<void>(f0);
    }
    table.emit(std::cout, "(a) one-sided vs two-sided greedy routing");
  }

  // (b) backtrack window sweep at heavy failure.
  {
    util::Table table({"window", "failed_p0.6", "hops_p0.6", "failed_p0.8"});
    for (const std::size_t window : {1u, 2u, 5u, 10u, 20u}) {
      core::RouterConfig cfg;
      cfg.stuck_policy = core::StuckPolicy::kBacktrack;
      cfg.backtrack_window = window;
      const auto [f6, h6] = sweep(cfg, 0.6);
      const auto [f8, h8] = sweep(cfg, 0.8);
      static_cast<void>(h8);
      table.add_row({std::to_string(window), util::format_double(f6, 4),
                     util::format_double(h6, 2), util::format_double(f8, 4)});
    }
    table.emit(std::cout, "(b) backtrack window sweep (paper uses 5)");
  }

  // (c) reroute budget sweep.
  {
    util::Table table({"max_reroutes", "failed_p0.5", "hops_p0.5"});
    for (const std::size_t budget : {1u, 2u, 4u, 8u}) {
      core::RouterConfig cfg;
      cfg.stuck_policy = core::StuckPolicy::kRandomReroute;
      cfg.max_reroutes = budget;
      const auto [f, h] = sweep(cfg, 0.5);
      table.add_row({std::to_string(budget), util::format_double(f, 4),
                     util::format_double(h, 2)});
    }
    table.emit(std::cout, "(c) random-reroute budget sweep (paper uses 1)");
  }

  // (c') ring vs line topology — the theory (§4.3) is stated on the line;
  // the experiments run on the ring (no boundary effects). Quantify the gap.
  {
    util::Table table({"topology", "hops_p0", "failed_p0.3", "hops_p0.3"});
    for (const auto kind :
         {metric::Space::Kind::kRing, metric::Space::Kind::kLine}) {
      const auto rows = sim::run_trials_multi(
          pool, trials, opts.seed,
          [&](std::size_t /*trial*/, util::Rng& rng) {
            graph::BuildSpec spec;
            spec.grid_size = n;
            spec.long_links = links;
            spec.topology = kind;
            const auto g = graph::build_overlay(spec, rng);
            const auto healthy = failure::FailureView::all_alive(g);
            const double h0 =
                sim::run_batch(core::Router(g, healthy), messages, rng, bench::batch_config_from_env())
                    .hops_success.mean();
            const auto res = bench::failure_trial(g, 0.3, core::RouterConfig{},
                                                  messages, rng);
            return std::vector<double>{h0, res.failed_fraction, res.hops_success};
          });
      const auto cols = sim::accumulate_columns(rows);
      table.add_row({kind == metric::Space::Kind::kRing ? "ring" : "line",
                     util::format_double(cols[0].mean(), 2),
                     util::format_double(cols[1].mean(), 4),
                     util::format_double(cols[2].mean(), 2)});
    }
    table.emit(std::cout, "(c') ring vs line topology");
  }

  // (d') directed vs bidirectional link usage (fig 6/7 run bidirectional).
  {
    util::Table table({"link_usage", "failed_p0.4", "failed_p0.8",
                       "hops_p0.4"});
    for (const bool bidir : {false, true}) {
      const auto rows = sim::run_trials_multi(
          pool, trials, opts.seed,
          [&](std::size_t trial, util::Rng& rng) {
            const auto g =
                bench::ideal_overlay(n, links, opts.seed + trial * 131, bidir);
            const auto a =
                bench::failure_trial(g, 0.4, core::RouterConfig{}, messages, rng);
            const auto b =
                bench::failure_trial(g, 0.8, core::RouterConfig{}, messages, rng);
            return std::vector<double>{a.failed_fraction, b.failed_fraction,
                                       a.hops_success};
          });
      const auto cols = sim::accumulate_columns(rows);
      table.add_row({bidir ? "bidirectional (fig6)" : "directed (theory)",
                     util::format_double(cols[0].mean(), 4),
                     util::format_double(cols[1].mean(), 4),
                     util::format_double(cols[2].mean(), 2)});
    }
    table.emit(std::cout, "(d') directed vs bidirectional link usage");
  }

  // (e) liveness knowledge vs stale best-neighbour commitment.
  {
    util::Table table({"knowledge", "failed_p0.1", "failed_p0.3", "failed_p0.5"});
    for (const auto knowledge : {core::Knowledge::kLiveness, core::Knowledge::kStale}) {
      core::RouterConfig cfg;
      cfg.knowledge = knowledge;
      std::vector<std::string> row{
          knowledge == core::Knowledge::kLiveness ? "live (paper)" : "stale"};
      for (const double p : {0.1, 0.3, 0.5}) {
        row.push_back(util::format_double(sweep(cfg, p).first, 4));
      }
      table.add_row(row);
    }
    table.emit(std::cout, "(e) neighbour-liveness knowledge ablation");
  }

  std::cout << "\nexpected: two-sided beats one-sided (more usable links); "
               "backtrack failures fall as the window grows with rising hop "
               "cost; extra reroutes buy reliability cheaply; stale "
               "commitment fails drastically more often than live choice.\n";
  return 0;
}
