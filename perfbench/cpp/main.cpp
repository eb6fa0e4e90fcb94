// perfbench_bin: runs one benchmark workload against the p2p library and
// writes everything it measured — spans, simulated outcomes, counters and
// output checks — as one JSON document. perfbench/run.py builds this binary,
// runs it and turns the document into the benchmark's metrics.
//
//   perfbench_bin --workload lookup|churn_replay|store_churn --seed N
//                    --seconds S --trace 0|1 --out FILE
//
// --trace 0 runs the workload's own rounds for S seconds with only round
// spans on: the end-to-end run. --trace 1 also builds every other layer's rig
// on the workload's graph and cycles through all of them with layer spans on,
// alternating the workload's own rounds with spans off and on so the tracing
// overhead is measured in the same run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "churn/trace_gen.h"
#include "graph/graph_builder.h"
#include "rigs.h"
#include "tracer.h"
#include "util/thread_pool.h"

namespace {

using namespace p2p;
using namespace perfbench;

enum class Kind { kLookup, kReplay, kStore };

/// revive_rate / kill_rate of every trace. default_spec balances the two,
/// which keeps ~0.2 % of nodes dead and leaves almost no search failing;
/// halving revivals lets the dead share grow to ~10 % over a trace.
constexpr double kReviveRatio = 0.5;

/// One workload: the graph it runs on, the churn trace, and the sizes of
/// every rig (the workload's own rig at full size, the others as probes for
/// the traced run).
struct Workload {
  const char* name = "";
  Kind kind = Kind::kLookup;
  graph::BuildSpec graph;
  double p_fail = 0.0;       ///< static §6 node failures (lookup's view)
  double trace_ms = 0.0;     ///< Poisson trace length
  /// Epoch length. util::poisson_sample returns garbage once its mean, less
  /// whole multiples of 30, is above ~16 (its exp(-mean) series cancels), so
  /// large graphs need short epochs to keep per-epoch kill counts below that.
  double epoch_ms = 1.0;
  LookupRig::Params lookup;
  ReplayRig::Params replay;
  StoreRig::Params store;
  std::size_t outcome_rounds = 1;  ///< rounds whose outcomes are reported
  std::size_t setups = 4;          ///< identical set-ups timed per run
};

/// A workload on a bidirectional power-law ring of n nodes (§6's overlay).
Workload on_ring(const char* name, Kind kind, std::uint64_t n, std::size_t links,
                 graph::EdgeLayout layout) {
  Workload w;
  w.name = name;
  w.kind = kind;
  w.graph.grid_size = n;
  w.graph.long_links = links;
  w.graph.bidirectional = true;
  w.graph.layout = layout;
  return w;
}

std::vector<Workload> workloads() {
  core::RouterConfig backtrack;
  backtrack.stuck_policy = core::StuckPolicy::kBacktrack;
  backtrack.backtrack_window = 5;

  Workload lookup = on_ring("lookup", Kind::kLookup, 1u << 19, 19, graph::EdgeLayout::kCompact);
  lookup.p_fail = 0.3;
  lookup.trace_ms = 50.0;
  lookup.epoch_ms = 0.25;
  lookup.lookup = {32768, 32, backtrack, 0};
  lookup.replay = {4096, 0.0, 0};
  lookup.store = {16384, 2048, 0, 0};
  lookup.outcome_rounds = 32;
  lookup.setups = 6;

  Workload churn =
      on_ring("churn_replay", Kind::kReplay, 1u << 16, 16, graph::EdgeLayout::kStandard);
  churn.trace_ms = 2000.0;
  churn.lookup = {8192, 2, {}, 0};
  churn.replay = {16384, 0.0, 0};
  churn.store = {16384, 2048, 1000, 0};
  churn.outcome_rounds = 1;
  churn.setups = 16;

  Workload store = churn;
  store.name = "store_churn";
  store.kind = Kind::kStore;
  store.store = {16384, 4096, 1000, 0};
  store.outcome_rounds = 128;
  store.setups = 16;

  std::vector<Workload> all = {lookup, churn, store};
  for (Workload& w : all) {
    // Spread a replay's searches over its whole trace: about 8 transmissions
    // per search at these sizes.
    w.replay.ticks_per_ms = static_cast<double>(w.replay.queries) * 8.0 / w.trace_ms;
  }
  return all;
}

/// Everything a run routes over. Members are destroyed bottom-up, so rigs go
/// before the graph and trace they point into.
struct Fixture {
  std::unique_ptr<graph::OverlayGraph> g;
  std::unique_ptr<churn::ChurnLog> log;
  std::unique_ptr<StoreRig> store;
  std::unique_ptr<failure::FailureView> masked;  ///< a static view with failures
  std::unique_ptr<LookupRig> lookup;
  std::unique_ptr<ReplayRig> replay;
};

struct Seeds {
  std::uint64_t graph, view, trace, lookup, replay, store, probe;
  explicit Seeds(std::uint64_t s)
      : graph(derive_seed(s, 1)), view(derive_seed(s, 2)), trace(derive_seed(s, 3)),
        lookup(derive_seed(s, 4)), replay(derive_seed(s, 5)), store(derive_seed(s, 6)),
        probe(derive_seed(s, 7)) {}
};

/// Builds the workload's fixture; `all` adds every other kind of rig.
Fixture set_up(const Workload& w, const Seeds& seeds, bool all, Tracer& t) {
  Fixture f;
  {
    auto span = t.layer("graph.build");
    util::ThreadPool pool(2);
    util::Rng rng(seeds.graph);
    f.g = std::make_unique<graph::OverlayGraph>(graph::build_overlay(w.graph, rng, pool));
  }
  if (all || w.kind != Kind::kLookup) {
    auto span = t.layer("churn.make_trace");
    churn::TraceSpec spec = churn::default_spec(churn::TraceSpec::Scenario::kPoissonChurn,
                                                w.trace_ms, f.g->size());
    spec.batch_interval = w.epoch_ms;
    spec.revive_rate = spec.kill_rate * kReviveRatio;
    util::Rng rng(seeds.trace);
    f.log = std::make_unique<churn::ChurnLog>(churn::make_trace(*f.g, spec, rng));
    span.ops(static_cast<double>(f.log->total_changes()));
  }
  if (all || w.kind == Kind::kStore) {
    StoreRig::Params p = w.store;
    p.seed = seeds.store;
    f.store = std::make_unique<StoreRig>(*f.g, *f.log, p, t);
  }
  if (all || w.kind == Kind::kLookup) {
    {
      auto span = t.layer("failure.view");
      if (w.kind == Kind::kLookup) {
        util::Rng rng(seeds.view);
        f.masked = std::make_unique<failure::FailureView>(
            failure::FailureView::with_node_failures(*f.g, w.p_fail, rng));
      } else if (w.kind == Kind::kStore) {
        f.masked = std::make_unique<failure::FailureView>(f.store->view());
      } else {
        f.masked = std::make_unique<failure::FailureView>(f.log->baseline());
        for (std::size_t e = 0; e < f.log->size(); ++e) f.masked->apply(f.log->delta(e));
      }
    }
    auto span = t.layer("service.construct");
    LookupRig::Params p = w.lookup;
    p.seed = seeds.lookup;
    f.lookup = std::make_unique<LookupRig>(*f.g, *f.masked, p);
  }
  if (all || w.kind == Kind::kReplay) {
    ReplayRig::Params p = w.replay;
    p.seed = seeds.replay;
    f.replay = std::make_unique<ReplayRig>(*f.g, *f.log, p);
  }
  return f;
}

/// One round of the workload's own kind.
void native_round(const Workload& w, Fixture& f, Tracer& t, std::size_t round,
                  Outcomes* out) {
  switch (w.kind) {
    case Kind::kLookup:
      f.lookup->service_round(t, round, out);
      break;
    case Kind::kReplay:
      f.replay->round(t, out);
      break;
    case Kind::kStore:
      f.store->round(t, false, out);
      break;
  }
}

/// The `key:` field of a /proc file in kB, as bytes (0 when absent).
std::size_t proc_kb(const char* path, const char* key) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  const std::size_t len = std::strlen(key);
  std::size_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kib = static_cast<std::size_t>(std::strtoull(line + len, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

std::size_t peak_rss_bytes() { return proc_kb("/proc/self/status", "VmHWM:"); }

void write_u64s(std::FILE* f, const std::vector<std::uint64_t>& v) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(v[i]));
  }
  std::fputc(']', f);
}

void write_doubles(std::FILE* f, const std::vector<double>& v) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.9g", i == 0 ? "" : ",", v[i]);
  }
  std::fputc(']', f);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--out") {
      a.out = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.out.empty() || !(a.seconds > 0.0)) {
    throw std::invalid_argument("need --out FILE and --seconds > 0");
  }
  return a;
}

int run(const Args& args) {
  const std::vector<Workload> table = workloads();
  const Workload* found = nullptr;
  for (const Workload& w : table) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *found;
  const Seeds seeds(args.seed);
  Tracer t;

  // Set-up, repeated identically; the last one is kept. Every set-up and
  // every timed round gets its own round id.
  std::uint32_t round = 0;
  Fixture fx;
  t.set_layers(args.trace);
  for (std::size_t i = 0; i < w.setups; ++i) {
    fx = Fixture{};
    // Hand the torn-down fixture's memory back, so every set-up starts from
    // the same heap and peak_rss_mb is one set-up's peak rather than the
    // fragmentation earlier repetitions left behind.
    malloc_trim(0);
    t.set_round(round++);
    auto span = t.round("setup");
    fx = set_up(w, seeds, args.trace, t);
    span.ops(1.0);
  }

  const std::size_t setup_peak_rss = peak_rss_bytes();

  std::unique_ptr<SelectProbe> select;
  std::unique_ptr<ApplyProbe> apply;
  std::unique_ptr<PlacementProbe> placement;
  if (args.trace) {
    select = std::make_unique<SelectProbe>(w.graph, seeds.graph, *fx.g, *fx.masked,
                                           seeds.probe, t);
    apply = std::make_unique<ApplyProbe>(*fx.log);
    placement = std::make_unique<PlacementProbe>(
        w.kind == Kind::kStore ? fx.store->view() : *fx.masked, seeds.probe);
  }

  Outcomes outcomes;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  std::size_t native_rounds = 0;
  if (!args.trace) {
    for (; elapsed() < args.seconds || native_rounds < w.outcome_rounds; ++native_rounds) {
      t.set_round(round++);
      native_round(w, fx, t, native_rounds,
                   native_rounds < w.outcome_rounds ? &outcomes : nullptr);
    }
  } else {
    for (std::size_t cycle = 0; elapsed() < args.seconds || cycle < 2; ++cycle) {
      // The workload's own rounds with layer spans off and on, in turns of
      // order so neither always follows the same probe.
      for (const bool layers : {cycle % 2 == 0, cycle % 2 != 0}) {
        t.set_layers(layers);
        t.set_round(round++);
        native_round(w, fx, t, native_rounds++, nullptr);
      }
      t.set_layers(true);
      if (w.kind != Kind::kLookup) {
        t.set_round(round++);
        fx.lookup->service_round(t, cycle, nullptr);
      }
      t.set_round(round++);
      fx.lookup->single_round(t, cycle);
      if (w.kind != Kind::kReplay) {
        t.set_round(round++);
        fx.replay->round(t, nullptr);
      }
      if (w.kind != Kind::kStore) {
        t.set_round(round++);
        fx.store->round(t, false, nullptr);
      }
      t.set_round(round++);
      fx.store->round(t, true, nullptr);
      t.set_round(round++);
      select->round(t);
      apply->round(t);
      placement->round(t);
    }
  }

  std::vector<Check> checks;
  if (fx.lookup) checks.push_back(fx.lookup->check());
  if (fx.replay) checks.push_back(fx.replay->check());
  if (select) checks.push_back(select->check());
  if (fx.store) checks.push_back(fx.store->check());

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + args.out);
  const graph::OverlayGraph& g = *fx.g;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"seconds\": %.17g,\n",
               w.name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
               args.seconds);
  std::fprintf(f,
               "\"params\": {\"nodes\": %zu, \"long_links\": %zu, \"bidirectional\": true, "
               "\"layout\": \"%s\", \"p_fail\": %.17g, \"trace_ms\": %.17g, "
               "\"trace_changes\": %zu, \"revive_ratio\": %.17g, \"lookup_queries\": %zu, "
               "\"lookup_sets\": %zu, \"replay_queries\": %zu, \"replay_ticks_per_ms\": %.17g, "
               "\"store_keys\": %zu, \"store_ops\": %zu, \"store_start_epoch\": %zu, "
               "\"workers\": 2, \"setups\": %zu, \"outcome_rounds\": %zu},\n",
               g.size(), w.graph.long_links,
               w.graph.layout == graph::EdgeLayout::kCompact ? "compact" : "standard", w.p_fail,
               w.trace_ms, fx.log ? fx.log->total_changes() : std::size_t{0}, kReviveRatio,
               w.lookup.queries, w.lookup.sets, w.replay.queries, w.replay.ticks_per_ms,
               w.store.keys, w.store.ops, w.store.start_epoch, w.setups, w.outcome_rounds);
  std::fprintf(f,
               "\"bytes_per_node\": %.17g, \"peak_rss_bytes\": %zu, "
               "\"setup_peak_rss_bytes\": %zu, \"anon_huge_bytes\": %zu, \"simd\": %s,\n",
               static_cast<double>(g.memory_bytes()) / static_cast<double>(g.size()),
               peak_rss_bytes(), setup_peak_rss,
               proc_kb("/proc/self/smaps_rollup", "AnonHugePages:"),
               select && select->simd_dispatched() ? "true" : "false");
  std::fprintf(f, "\"native_rounds\": %zu,\n", native_rounds);
  std::fprintf(f,
               "\"outcomes\": {\"ops\": %llu, \"searches\": %llu, \"undelivered\": %llu, "
               "\"messages\": %llu, \"failed_quorums\": %llu, \"hops_hist\": ",
               static_cast<unsigned long long>(outcomes.ops),
               static_cast<unsigned long long>(outcomes.searches),
               static_cast<unsigned long long>(outcomes.undelivered),
               static_cast<unsigned long long>(outcomes.messages),
               static_cast<unsigned long long>(outcomes.failed_quorums));
  write_u64s(f, outcomes.hops_hist);
  std::fputs(", \"get_latency_ms\": ", f);
  write_doubles(f, outcomes.get_latency_ms);
  std::fputs(", \"put_latency_ms\": ", f);
  write_doubles(f, outcomes.put_latency_ms);
  std::fputs("},\n\"counters\": {", f);
  const char* sep = "";
  if (fx.lookup) {
    std::fprintf(f, "\"lookup\": {\"routed\": %llu, \"messages\": %llu, \"backtracks\": %llu}",
                 static_cast<unsigned long long>(fx.lookup->routed),
                 static_cast<unsigned long long>(fx.lookup->messages),
                 static_cast<unsigned long long>(fx.lookup->backtracks));
    sep = ", ";
  }
  if (fx.replay) {
    std::fprintf(f, "%s\"replay\": {\"rounds\": %llu, \"routed\": %llu, \"ticks\": %llu, "
                 "\"changes_per_round\": %zu}",
                 sep, static_cast<unsigned long long>(fx.replay->rounds),
                 static_cast<unsigned long long>(fx.replay->routed),
                 static_cast<unsigned long long>(fx.replay->ticks), fx.log->total_changes());
    sep = ", ";
  }
  if (fx.store) {
    std::fprintf(f, "%s\"store\": {\"ops\": %llu, \"gets\": %llu, \"subqueries\": %llu, "
                 "\"failovers\": %llu, \"answered\": %llu, \"stale\": %llu}",
                 sep, static_cast<unsigned long long>(fx.store->ops),
                 static_cast<unsigned long long>(fx.store->gets),
                 static_cast<unsigned long long>(fx.store->subqueries),
                 static_cast<unsigned long long>(fx.store->failovers),
                 static_cast<unsigned long long>(fx.store->answered),
                 static_cast<unsigned long long>(fx.store->stale));
  }
  std::fputs("},\n\"checks\": [", f);
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::fprintf(f, "%s{\"name\": \"%s\", \"checked\": %llu, \"mismatches\": %llu, "
                 "\"detail\": \"%s\"}",
                 i == 0 ? "" : ", ", checks[i].name.c_str(),
                 static_cast<unsigned long long>(checks[i].checked),
                 static_cast<unsigned long long>(checks[i].mismatches),
                 checks[i].detail.c_str());
  }
  std::fputs("],\n\"spans\": ", f);
  t.write_json(f);
  std::fputs("}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 2;
  }
}
