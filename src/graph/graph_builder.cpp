#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/require.h"

namespace p2p::graph {

// ---------------------------------------------------------------------------
// GraphBuilder

GraphBuilder::GraphBuilder(metric::Space space)
    : space_(space),
      adjacency_(space.size()),
      short_degree_(space.size(), 0) {}

GraphBuilder::GraphBuilder(metric::Space space, std::vector<metric::Point> positions)
    : space_(space), positions_(std::move(positions)) {
  util::require(!positions_.empty(), "GraphBuilder: need at least one node");
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    util::require(space_.contains(positions_[i]),
                  "GraphBuilder: position outside the space");
    if (i > 0) {
      util::require(positions_[i - 1] < positions_[i],
                    "GraphBuilder: positions must be strictly increasing");
    }
  }
  adjacency_.resize(positions_.size());
  short_degree_.assign(positions_.size(), 0);
}

void GraphBuilder::check_node(NodeId u) const {
  util::require_in_range(u < adjacency_.size(), "GraphBuilder: node id out of range");
}

void GraphBuilder::reserve_links(std::size_t per_node) {
  for (auto& adj : adjacency_) adj.reserve(per_node);
}

void GraphBuilder::add_short_link(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (short_degree_[u] != adjacency_[u].size()) {
    throw std::logic_error("GraphBuilder: short links must precede long links");
  }
  adjacency_[u].push_back(v);
  ++short_degree_[u];
  ++link_count_;
}

void GraphBuilder::add_long_link(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  adjacency_[u].push_back(v);
  ++link_count_;
}

bool GraphBuilder::has_link(NodeId u, NodeId v) const noexcept {
  const auto& adj = adjacency_[u];
  return std::find(adj.begin(), adj.end(), v) != adj.end();
}

namespace {

/// Shared short-link wiring over anything with size/space/add_short_link.
/// Node order equals position order, so index neighbours are the nearest
/// occupied grid points on either side — a 1-D notion; the torus wires its
/// lattice in build_kleinberg_overlay instead.
template <typename GraphLike>
void wire_short_links_impl(GraphLike& g) {
  util::require(g.space().one_dimensional(),
                "wire_short_links: side neighbours are only defined on a "
                "one-dimensional space (use build_kleinberg_overlay for the "
                "torus lattice)");
  const std::size_t n = g.size();
  if (n < 2) return;
  const bool ring = g.space().kind() == metric::Space::Kind::kRing;
  for (NodeId u = 0; u < n; ++u) {
    if (u + 1 < n) {
      g.add_short_link(u, u + 1);
    } else if (ring && n > 2) {
      g.add_short_link(u, 0);
    }
    if (u > 0) {
      g.add_short_link(u, u - 1);
    } else if (ring && n > 2) {
      // n == 2 is excluded: the u+1 branch already wired 0 <-> 1 once.
      g.add_short_link(u, static_cast<NodeId>(n - 1));
    }
  }
}

}  // namespace

void GraphBuilder::wire_short_links() { wire_short_links_impl(*this); }

void GraphBuilder::make_bidirectional() { add_missing_reverses(nullptr); }

void GraphBuilder::make_bidirectional(util::ThreadPool& pool) { add_missing_reverses(&pool); }

void GraphBuilder::add_missing_reverses(util::ThreadPool* pool) {
  util::require(link_count_ <= std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder::make_bidirectional: edge slot index overflow");
  const std::size_t n = adjacency_.size();
  // Transpose the long links by counting sort. start[v] first counts v's
  // in-links, then (inclusive prefix sum) marks the end of v's range; the
  // fill walks sources from the back, so afterwards sources[start[v],
  // start[v + 1]) lists every u with a long link u -> v, ascending in u.
  std::vector<std::uint32_t> start(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : long_neighbors(u)) ++start[v];
  }
  std::partial_sum(start.begin(), start.end() - 1, start.begin());
  start[n] = n > 0 ? start[n - 1] : 0;
  std::vector<NodeId> sources(start[n]);
  for (std::size_t u = n; u-- > 0;) {
    const auto longs = long_neighbors(static_cast<NodeId>(u));
    for (auto it = longs.rbegin(); it != longs.rend(); ++it) {
      sources[--start[*it]] = static_cast<NodeId>(u);
    }
  }
  // Walking u in ascending order and adding v -> u for each long link
  // u -> v unless v already links to u appends to v exactly the distinct
  // sources u, ascending, that v's pre-call slice lacks: no reverse added on
  // the way is one a later check tests. So each node decides alone,
  // compacting its survivors to the front of its own range of sources.
  std::vector<std::uint32_t> kept(n, 0);
  const auto decide = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      const std::vector<NodeId>& adj = adjacency_[v];
      NodeId* const first = sources.data() + start[v];
      NodeId* const last = sources.data() + start[v + 1];
      NodeId* out = first;
      for (const NodeId* it = first; it != last; ++it) {
        if (it != first && *it == it[-1]) continue;
        // Branch-free scan: the slice is short, and this form vectorizes.
        unsigned present = 0;
        for (const NodeId x : adj) present |= static_cast<unsigned>(x == *it);
        if (present == 0) *out++ = *it;
      }
      kept[v] = static_cast<std::uint32_t>(out - first);
    }
  };
  if (pool != nullptr && pool->thread_count() > 1 && n >= 1024) {
    pool->parallel_chunks(n, pool->thread_count() * 8, decide);
  } else {
    decide(0, n);
  }
  // One insert per node, on the calling thread: slices regrown there reuse
  // the heap their old storage came from instead of growing the workers'.
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId* const first = sources.data() + start[v];
    adjacency_[v].insert(adjacency_[v].end(), first, first + kept[v]);
    link_count_ += kept[v];
  }
}

OverlayGraph GraphBuilder::freeze(FreezeOptions opts) {
  return freeze_impl(nullptr, opts);
}

OverlayGraph GraphBuilder::freeze(util::ThreadPool& pool, FreezeOptions opts) {
  return freeze_impl(&pool, opts);
}

OverlayGraph GraphBuilder::freeze_impl(util::ThreadPool* pool, FreezeOptions opts) {
  util::require(link_count_ <= std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder::freeze: edge slot index overflow");
  const std::size_t n = adjacency_.size();
  std::vector<std::uint32_t> slice_sizes(n);
  std::vector<std::uint32_t> offsets(n);
  std::uint32_t offset = 0;
  for (std::size_t u = 0; u < n; ++u) {
    slice_sizes[u] = static_cast<std::uint32_t>(adjacency_[u].size());
    offsets[u] = offset;
    offset += slice_sizes[u];
  }
  // Every slice's destination is fixed by the prefix sum above, so packing
  // is embarrassingly parallel and bit-identical to the serial copy.
  std::vector<NodeId> edges(link_count_);
  const auto pack = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      std::copy(adjacency_[u].begin(), adjacency_[u].end(),
                edges.begin() + offsets[u]);
    }
  };
  if (pool != nullptr && pool->thread_count() > 1 && n >= 1024) {
    pool->parallel_chunks(n, pool->thread_count() * 8, pack);
  } else {
    pack(0, n);
  }
  OverlayGraph g =
      opts.layout == EdgeLayout::kCompact
          ? OverlayGraph::freeze_compact(space_, std::move(positions_),
                                         slice_sizes, short_degree_, edges,
                                         opts.huge_pages, pool)
          : OverlayGraph(space_, std::move(positions_), std::move(slice_sizes),
                         std::move(short_degree_), std::move(edges));
  // Leave the builder empty rather than half-moved-from.
  adjacency_.clear();
  positions_.clear();
  short_degree_.clear();
  link_count_ = 0;
  return g;
}

// ---------------------------------------------------------------------------
// Ideal (one-shot) construction

void wire_short_links(OverlayGraph& g) { wire_short_links_impl(g); }

namespace {

std::vector<metric::Point> draw_present_positions(std::uint64_t grid_size,
                                                  double presence, util::Rng& rng) {
  std::vector<metric::Point> positions;
  positions.reserve(static_cast<std::size_t>(static_cast<double>(grid_size) * presence) + 16);
  // Re-draw until at least two nodes exist; with any sane presence this runs
  // once. (Theorem 17's analysis assumes a non-degenerate network.)
  for (int attempt = 0; attempt < 1024; ++attempt) {
    positions.clear();
    for (std::uint64_t p = 0; p < grid_size; ++p) {
      if (rng.next_bool(presence)) positions.push_back(static_cast<metric::Point>(p));
    }
    if (positions.size() >= 2) return positions;
  }
  util::require(false, "build_overlay: presence too small to populate the grid");
  return positions;  // unreachable
}

/// Samples node u's long-link targets into `out[0..long_links)` using u's
/// private rng. Read-only on the builder, so any number of nodes can sample
/// concurrently; a slot is kInvalidNode when the draw produced no link.
void sample_power_law_targets(const GraphBuilder& g, const BuildSpec& spec,
                              const PowerLawLinkSampler& sampler, NodeId u,
                              util::Rng& rng, NodeId* out) {
  const bool sparse = spec.presence < 1.0;
  constexpr int kMaxRejections = 256;
  const metric::Point src = g.position(u);
  for (std::size_t k = 0; k < spec.long_links; ++k) {
    NodeId target = kInvalidNode;
    if (!sparse) {
      target = g.node_at(sampler.sample_target(rng, src));
    } else if (spec.sparse_mode == BuildSpec::SparseLinkMode::kRejection) {
      for (int tries = 0; tries < kMaxRejections; ++tries) {
        const NodeId candidate = g.node_at(sampler.sample_target(rng, src));
        if (candidate != kInvalidNode) {
          target = candidate;
          break;
        }
      }
      if (target == kInvalidNode) {
        // Degenerate sparsity: fall back to snapping so the build finishes.
        target = g.node_nearest(sampler.sample_target(rng, src));
      }
    } else {
      target = g.node_nearest(sampler.sample_target(rng, src));
    }
    out[k] = target == u ? kInvalidNode : target;
  }
}

/// The long-link sampling loop, optionally fanned over `pool`. Each node
/// samples from util::substream(base, u), so the built graph depends only on
/// (spec, rng) — serial and parallel builds of any thread count are
/// bit-identical. Sampling (the expensive part: one guided inverse-CDF
/// lookup per draw, plus rejection in sparse mode) runs in parallel into a
/// flat target table; the cheap appends stay serial because GraphBuilder
/// mutation is not thread-safe.
void add_power_law_links(GraphBuilder& g, const BuildSpec& spec, util::Rng& rng,
                         util::ThreadPool* pool) {
  if (spec.long_links == 0) return;  // before the base draw: no links, no rng use
  const PowerLawLinkSampler sampler(g.space(), spec.exponent);
  const std::uint64_t base = rng();
  const std::size_t n = g.size();
  std::vector<NodeId> targets(n * spec.long_links);
  const auto sample_node = [&](NodeId u, util::Rng& node_rng) {
    sample_power_law_targets(g, spec, sampler, u, node_rng,
                             targets.data() + static_cast<std::size_t>(u) * spec.long_links);
  };
  if (pool != nullptr && pool->thread_count() > 1 && n >= 1024) {
    pool->parallel_chunks(n, pool->thread_count() * 8,
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t u = lo; u < hi; ++u) {
                              util::Rng node_rng = util::substream(base, u);
                              sample_node(static_cast<NodeId>(u), node_rng);
                            }
                          });
  } else {
    for (NodeId u = 0; u < n; ++u) {
      util::Rng node_rng = util::substream(base, u);
      sample_node(u, node_rng);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    const NodeId* row = targets.data() + static_cast<std::size_t>(u) * spec.long_links;
    for (std::size_t k = 0; k < spec.long_links; ++k) {
      if (row[k] != kInvalidNode) g.add_long_link(u, row[k]);
    }
  }
}

void add_base_b_links(GraphBuilder& g, const BuildSpec& spec) {
  const std::uint64_t n = g.space().size();
  const auto offsets = spec.link_model == BuildSpec::LinkModel::kBaseBFull
                           ? base_b_full_offsets(n, spec.base)
                           : base_b_power_offsets(n, spec.base);
  const bool sparse = spec.presence < 1.0;
  for (NodeId u = 0; u < g.size(); ++u) {
    const metric::Point src = g.position(u);
    for (const std::uint64_t off : offsets) {
      for (const int sign : {+1, -1}) {
        const auto target_pos =
            g.space().offset(src, sign * static_cast<std::int64_t>(off));
        if (!target_pos) continue;  // fell off the line
        NodeId target = g.node_at(*target_pos);
        if (target == kInvalidNode && sparse &&
            spec.sparse_mode == BuildSpec::SparseLinkMode::kSnap) {
          target = g.node_nearest(*target_pos);
        }
        if (target != kInvalidNode && target != u && !g.has_link(u, target)) {
          g.add_long_link(u, target);
        }
      }
    }
  }
}

/// Throws std::invalid_argument unless `nodes` nodes fit the NodeId range
/// and their links fit the u32 edge slot index freeze (and the
/// make_bidirectional transpose) use: each node holds at most `short_links`
/// short links and `long_links` long links, plus as many reverses when
/// `bidirectional`. Callers run it before allocating anything per node or
/// per link, so an impossible spec fails fast instead of in a reserve.
void require_slot_budget(std::uint64_t nodes, std::uint64_t short_links,
                         std::uint64_t long_links, bool bidirectional, const char* what) {
  util::require(nodes <= std::numeric_limits<NodeId>::max(),
                std::string(what) + ": node count exceeds the NodeId range");
  const std::uint64_t per_node = std::numeric_limits<std::uint32_t>::max() / nodes;
  util::require(short_links <= per_node &&
                    long_links <= (per_node - short_links) / (bidirectional ? 2 : 1),
                std::string(what) + ": links exceed the u32 edge slot index");
}

/// Shared implementation of the two public overloads (pool may be null).
OverlayGraph build_overlay_impl(const BuildSpec& spec, util::Rng& rng,
                                util::ThreadPool* pool) {
  util::require(spec.grid_size >= 2, "build_overlay: grid_size must be >= 2");
  util::require(spec.presence > 0.0 && spec.presence <= 1.0,
                "build_overlay: presence must be in (0,1]");
  util::require(spec.exponent >= 0.0, "build_overlay: exponent must be >= 0");
  util::require(spec.base >= 2 || spec.link_model == BuildSpec::LinkModel::kPowerLaw,
                "build_overlay: base must be >= 2");

  util::require(spec.topology != metric::Space::Kind::kTorus,
                "build_overlay: a torus overlay is built by build_kleinberg_overlay");
  const metric::Space space = spec.topology == metric::Space::Kind::kRing
                                  ? metric::Space::ring(spec.grid_size)
                                  : metric::Space::line(spec.grid_size);

  // Reject what cannot be built before allocating for it. A sparse grid
  // holds at least two nodes; its drawn count is checked once known.
  util::require(spec.grid_size <= std::numeric_limits<NodeId>::max(),
                "build_overlay: grid_size exceeds the NodeId range");
  const bool sparse = spec.presence < 1.0;
  require_slot_budget(sparse ? 2 : spec.grid_size, 2, spec.long_links, spec.bidirectional,
                      "build_overlay");
  GraphBuilder builder =
      sparse ? GraphBuilder(space, draw_present_positions(spec.grid_size, spec.presence, rng))
             : GraphBuilder(space);
  require_slot_budget(builder.size(), 2, spec.long_links, spec.bidirectional, "build_overlay");
  builder.reserve_links(spec.long_links + 2);
  builder.wire_short_links();
  if (spec.link_model == BuildSpec::LinkModel::kPowerLaw) {
    add_power_law_links(builder, spec, rng, pool);
  } else {
    add_base_b_links(builder, spec);
  }
  if (spec.bidirectional) {
    if (pool != nullptr) {
      builder.make_bidirectional(*pool);
    } else {
      builder.make_bidirectional();
    }
  }
  const FreezeOptions freeze_opts{.layout = spec.layout};
  return pool != nullptr ? builder.freeze(*pool, freeze_opts)
                         : builder.freeze(freeze_opts);
}

}  // namespace

OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng) {
  return build_overlay_impl(spec, rng, nullptr);
}

OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng,
                           util::ThreadPool& pool) {
  return build_overlay_impl(spec, rng, &pool);
}

namespace {

OverlayGraph build_kleinberg_overlay_impl(std::uint32_t side,
                                          std::size_t long_links, double exponent,
                                          util::Rng& rng, util::ThreadPool* pool) {
  util::require(side >= 2, "build_kleinberg_overlay: side must be >= 2");
  util::require(exponent >= 0.0, "build_kleinberg_overlay: exponent must be >= 0");
  const metric::Space torus = metric::Space::torus(side);
  require_slot_budget(torus.size(), 4, long_links, false, "build_kleinberg_overlay");

  GraphBuilder builder{torus};
  builder.reserve_links(long_links + 4);
  // Four lattice neighbours per node (wrapping, so every node has all four).
  // These are the "short" links a failure model keeps alive, exactly like
  // the ±1 links of the 1-D overlays. At side 2 the ±1 neighbours coincide,
  // so only the two distinct ones are wired: duplicate slots would make
  // slot-keyed link kills silent no-ops (the twin slot stays alive).
  const bool tiny = side == 2;
  for (NodeId u = 0; u < builder.size(); ++u) {
    const auto [row, col] = torus.coords(static_cast<metric::Point>(u));
    const auto r = static_cast<std::int64_t>(row);
    const auto c = static_cast<std::int64_t>(col);
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r + 1, c)));
    if (!tiny) builder.add_short_link(u, static_cast<NodeId>(torus.at(r - 1, c)));
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r, c + 1)));
    if (!tiny) builder.add_short_link(u, static_cast<NodeId>(torus.at(r, c - 1)));
  }
  // Long-range links through the same unified sampler + per-node-substream
  // machinery as the 1-D builds; only the long-link fields of the spec are
  // read (the torus is always fully populated).
  BuildSpec link_spec;
  link_spec.long_links = long_links;
  link_spec.exponent = exponent;
  add_power_law_links(builder, link_spec, rng, pool);
  return pool != nullptr ? builder.freeze(*pool) : builder.freeze();
}

}  // namespace

OverlayGraph build_kleinberg_overlay(std::uint32_t side, std::size_t long_links,
                                     double exponent, util::Rng& rng) {
  return build_kleinberg_overlay_impl(side, long_links, exponent, rng, nullptr);
}

OverlayGraph build_kleinberg_overlay(std::uint32_t side, std::size_t long_links,
                                     double exponent, util::Rng& rng,
                                     util::ThreadPool& pool) {
  return build_kleinberg_overlay_impl(side, long_links, exponent, rng, &pool);
}

}  // namespace p2p::graph
