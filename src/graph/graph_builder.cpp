#include "graph/graph_builder.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/arena.h"
#include "util/require.h"

namespace p2p::graph {

// ---------------------------------------------------------------------------
// GraphBuilder

namespace {

/// Throws std::invalid_argument unless `nodes` nodes fit the NodeId range.
std::size_t checked_node_count(std::uint64_t nodes, const char* what) {
  util::require(nodes <= std::numeric_limits<NodeId>::max(),
                std::string(what) + ": node count exceeds the NodeId range");
  return static_cast<std::size_t>(nodes);
}

/// True when the per-node passes are worth fanning across `pool`.
bool fans(const util::ThreadPool* pool, std::size_t n) {
  return pool != nullptr && pool->thread_count() > 1 && n >= 1024;
}

}  // namespace

GraphBuilder::GraphBuilder(metric::Space space)
    : space_(space), node_count_(checked_node_count(space.size(), "GraphBuilder")) {}

GraphBuilder::GraphBuilder(metric::Space space, std::vector<metric::Point> positions)
    : space_(space),
      positions_(std::move(positions)),
      node_count_(checked_node_count(positions_.size(), "GraphBuilder")) {
  util::require(!positions_.empty(), "GraphBuilder: need at least one node");
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    util::require(space_.contains(positions_[i]),
                  "GraphBuilder: position outside the space");
    if (i > 0) {
      util::require(positions_[i - 1] < positions_[i],
                    "GraphBuilder: positions must be strictly increasing");
    }
  }
}

void GraphBuilder::Run::append(NodeId u, NodeId v) {
  if (offsets.size() > std::size_t{u} + 1) {
    throw std::logic_error("GraphBuilder: links must be added in node order");
  }
  util::require(targets.size() < std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder: edge slot index overflow");
  while (offsets.size() <= u) offsets.push_back(static_cast<std::uint32_t>(targets.size()));
  targets.push_back(v);
}

void GraphBuilder::Run::seal(std::size_t n) {
  offsets.resize(n + 1, static_cast<std::uint32_t>(targets.size()));
}

void GraphBuilder::check_node(NodeId u) const {
  util::require_in_range(u < node_count_, "GraphBuilder: node id out of range");
}

void GraphBuilder::check_open() const {
  if (closed_) {
    throw std::logic_error("GraphBuilder: no link can be added after make_bidirectional");
  }
}

void GraphBuilder::add_short_link(NodeId u, NodeId v) {
  check_open();
  check_node(u);
  check_node(v);
  if (long_.offsets.size() > u) {
    throw std::logic_error("GraphBuilder: short links must precede long links");
  }
  util::require(short_.slice(u).size() < std::numeric_limits<std::uint16_t>::max(),
                "GraphBuilder: a node's short degree must fit in 16 bits");
  short_.append(u, v);
}

void GraphBuilder::add_long_link(NodeId u, NodeId v) {
  check_open();
  check_node(u);
  check_node(v);
  long_.append(u, v);
}

void GraphBuilder::add_long_links(LinkTable targets, std::size_t per_node) {
  check_open();
  if (!long_.offsets.empty()) {
    throw std::logic_error("GraphBuilder: a long-link table must come before any long link");
  }
  util::require(targets.size() <= std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder: edge slot index overflow");
  // Both factors are below 2^32, so the product cannot wrap.
  util::require(per_node <= std::numeric_limits<std::uint32_t>::max() &&
                    targets.size() == node_count_ * per_node,
                "GraphBuilder: long-link table size must be size() * per_node");
  // One branch-free pass compacts the rows in place and checks every target.
  // Each target is copied, and the write cursor, which never passes the read
  // one, steps over a hole. v + 1 wraps a hole to 0, so a target names a node
  // iff v + 1 <= size(), and the pass keeps only the maximum. The table is
  // this call's own, so the run is only replaced once the check passed.
  detail::NoFillVector<std::uint32_t> offsets(node_count_ + 1);
  NodeId top = 0;
  std::size_t out = 0;
  for (std::size_t u = 0; u < node_count_; ++u) {
    offsets[u] = static_cast<std::uint32_t>(out);
    for (std::size_t k = u * per_node; k < (u + 1) * per_node; ++k) {
      const NodeId v = targets[k];
      top = std::max(top, static_cast<NodeId>(v + 1));
      targets[out] = v;
      out += static_cast<std::size_t>(v != kInvalidNode);
    }
  }
  util::require_in_range(top <= node_count_, "GraphBuilder: node id out of range");
  offsets[node_count_] = static_cast<std::uint32_t>(out);
  targets.resize(out);
  long_ = Run{std::move(offsets), std::move(targets)};
}

bool GraphBuilder::has_link(NodeId u, NodeId v) const noexcept {
  for (const Run* run : {&short_, &long_, &reverse_}) {
    const auto links = run->slice(u);
    if (std::find(links.begin(), links.end(), v) != links.end()) return true;
  }
  return false;
}

// Node order equals position order, so index neighbours are the nearest
// occupied grid points on either side — a 1-D notion; the torus wires its
// lattice in build_kleinberg_overlay instead.
void GraphBuilder::wire_short_links() {
  util::require(space_.one_dimensional(),
                "wire_short_links: side neighbours are only defined on a "
                "one-dimensional space (use build_kleinberg_overlay for the "
                "torus lattice)");
  check_open();
  if (!short_.offsets.empty() || !long_.offsets.empty()) {
    throw std::logic_error("GraphBuilder: wire_short_links must come before any link");
  }
  const std::size_t n = node_count_;
  if (n < 2) return;
  // Each end has one link, or two where the ring wraps; on a 2-node ring
  // u + 1 and u - 1 name the same node, wired once.
  const bool wrap = space_.kind() == metric::Space::Kind::kRing && n > 2;
  const std::size_t ends = wrap ? 2 : 1;
  const std::size_t links = 2 * (n - 2) + 2 * ends;
  util::require(links <= std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder: edge slot index overflow");
  // The last node's range stays open, as after appends (Run::seal closes it).
  short_.offsets.resize(n);
  short_.targets.resize(links);
  std::uint32_t* const offsets = short_.offsets.data();
  NodeId* const targets = short_.targets.data();
  const auto last = static_cast<NodeId>(n - 1);
  offsets[0] = 0;
  targets[0] = 1;
  if (wrap) targets[1] = last;
  for (NodeId u = 1; u < last; ++u) {
    const std::size_t k = ends + 2 * (std::size_t{u} - 1);
    offsets[u] = static_cast<std::uint32_t>(k);
    targets[k] = u + 1;
    targets[k + 1] = u - 1;
  }
  const std::size_t k = ends + 2 * (n - 2);
  offsets[last] = static_cast<std::uint32_t>(k);
  if (wrap) targets[k] = 0;
  targets[k + ends - 1] = last - 1;
}

void GraphBuilder::make_bidirectional() { add_missing_reverses(nullptr); }

void GraphBuilder::make_bidirectional(util::ThreadPool& pool) { add_missing_reverses(&pool); }

std::size_t GraphBuilder::transpose_block_nodes(std::size_t n) noexcept {
  std::uint64_t block = std::uint64_t{1} << 12;
  while (block < (std::uint64_t{1} << 16) && block * block < n) block <<= 1;
  return static_cast<std::size_t>(block);
}

void GraphBuilder::add_missing_reverses(util::ThreadPool* pool) {
  if (closed_) return;  // every reverse is already in
  closed_ = true;
  const std::size_t n = node_count_;
  short_.seal(n);
  long_.seal(n);
  reverse_.offsets.resize(n + 1);
  // Transpose the long links in blocks of B nodes, so that every pass
  // streams: a link u -> v goes from source block a = u / B to target block
  // b = v / B. `cursor[a * blocks + b]` first counts a's links into b; the
  // prefix sum in (b, a) order then makes it the first slot of sub-bucket
  // (a, b), so target block b's region of the reverse run holds exactly its
  // links, sub-bucketed by source block in ascending a.
  const std::size_t block = transpose_block_nodes(n);
  const auto shift = static_cast<unsigned>(std::countr_zero(block));
  const NodeId mask = static_cast<NodeId>(block - 1);
  const std::size_t blocks = (n + block - 1) >> shift;
  // Every pass runs body(block, worker) once per block: `workers` workers
  // each claim the next unclaimed block, so a worker's scratch is its own.
  const std::size_t workers = fans(pool, n) ? std::min(pool->thread_count(), blocks) : 1;
  const auto over_blocks = [&](const std::function<void(std::size_t, std::size_t)>& body) {
    std::atomic<std::size_t> claimed{0};
    const auto work = [&](std::size_t w) {
      for (std::size_t b = claimed++; b < blocks; b = claimed++) body(b, w);
    };
    if (workers > 1) {
      pool->parallel_for(workers, work);
    } else {
      work(0);
    }
  };
  const auto nodes_of = [&](std::size_t a) {
    return std::pair{a * block, std::min(n, (a + 1) * block)};
  };
  detail::NoFillVector<std::uint32_t> cursor(blocks * blocks);
  over_blocks([&](std::size_t a, std::size_t) {
    std::uint32_t* const row = cursor.data() + a * blocks;
    std::fill_n(row, blocks, 0u);
    const auto [lo, hi] = nodes_of(a);
    const NodeId* const last = long_.targets.data() + long_.offsets[hi];
    for (const NodeId* v = long_.targets.data() + long_.offsets[lo]; v != last; ++v) {
      ++row[*v >> shift];
    }
  });
  // region[b]: the first slot of target block b. Both sweeps read the table
  // row by row.
  std::vector<std::uint32_t> region(blocks + 1, 0);
  for (std::size_t a = 0; a < blocks; ++a) {
    for (std::size_t b = 0; b < blocks; ++b) region[b + 1] += cursor[a * blocks + b];
  }
  for (std::size_t b = 0; b < blocks; ++b) region[b + 1] += region[b];
  std::vector<std::uint32_t> next(region.begin(), region.end() - 1);
  for (std::size_t a = 0; a < blocks; ++a) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint32_t count = cursor[a * blocks + b];
      cursor[a * blocks + b] = next[b];
      next[b] += count;
    }
  }
  // Each source block writes its links, ascending in u, to its sub-buckets
  // as (u mod B) | (v mod B) << 16; afterwards its cursors mark the
  // sub-buckets' ends.
  reverse_.targets.resize(region[blocks]);
  std::uint32_t* const packed = reverse_.targets.data();
  over_blocks([&](std::size_t a, std::size_t) {
    std::uint32_t* const row = cursor.data() + a * blocks;
    const auto [lo, hi] = nodes_of(a);
    for (std::size_t u = lo; u < hi; ++u) {
      const auto low = static_cast<std::uint32_t>(u & mask);
      for (const NodeId v : long_.slice(u)) packed[row[v >> shift]++] = low | (v & mask) << 16;
    }
  });

  // Each target block then sorts its region by v mod B into a scratch,
  // reading the sub-buckets in ascending a, so every target's sources come
  // out ascending, and decides them node by node. Walking u in ascending
  // order and adding v -> u for each long link u -> v unless v already
  // links to u appends to v exactly the distinct sources u, ascending, that
  // v's short and long links lack: no reverse added on the way is one a
  // later check tests. So each node decides alone; its survivors are
  // compacted to the front of the block's region, and `kept[b]` counts them.
  std::vector<std::uint32_t> kept(blocks);
  const auto sort_and_decide = [&](std::size_t b, NodeId* scratch, std::uint32_t* ends) {
    const auto [lo, hi] = nodes_of(b);
    const std::size_t width = hi - lo;
    // ends[v mod B] counts v's sources, then holds their first slot in the
    // scratch, which the scatter advances to the range's end.
    std::fill_n(ends, width, 0u);
    for (std::uint32_t i = region[b]; i < region[b + 1]; ++i) ++ends[packed[i] >> 16];
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < width; ++v) {
      const std::uint32_t count = ends[v];
      ends[v] = sum;
      sum += count;
    }
    std::uint32_t i = region[b];
    for (std::size_t a = 0; a < blocks; ++a) {
      const auto high = static_cast<NodeId>(a << shift);
      for (const std::uint32_t end = cursor[a * blocks + b]; i < end; ++i) {
        scratch[ends[packed[i] >> 16]++] = high | (packed[i] & 0xFFFFu);
      }
    }
    NodeId* const front = packed + region[b];
    NodeId* out = front;
    for (std::size_t v = lo; v < hi; ++v) {
      reverse_.offsets[v] = static_cast<std::uint32_t>(out - packed);
      const auto shorts = short_.slice(v);
      const auto longs = long_.slice(v);
      // A 256-bit filter of v's own links: a source whose bit is clear is
      // certainly not among them, so only the few whose bit is set scan.
      std::uint64_t filter[4] = {};
      const auto bit = [](NodeId x) { return std::uint64_t{1} << (x & 63); };
      for (const NodeId x : shorts) filter[(x >> 6) & 3] |= bit(x);
      for (const NodeId x : longs) filter[(x >> 6) & 3] |= bit(x);
      NodeId previous = kInvalidNode;  // no source is kInvalidNode
      const NodeId* const last = scratch + ends[v - lo];
      for (const NodeId* it = v == lo ? scratch : scratch + ends[v - lo - 1]; it != last; ++it) {
        const NodeId u = *it;
        bool keep = u != previous;
        previous = u;
        if ((filter[(u >> 6) & 3] & bit(u)) != 0) {
          // Branch-free scans: the slices are short, and this form vectorizes.
          unsigned present = 0;
          for (const NodeId x : shorts) present |= static_cast<unsigned>(x == u);
          for (const NodeId x : longs) present |= static_cast<unsigned>(x == u);
          keep &= present == 0;
        }
        *out = u;  // the region was read into the scratch, so out can overwrite it
        out += static_cast<std::ptrdiff_t>(keep);
      }
    }
    kept[b] = static_cast<std::uint32_t>(out - front);
  };
  // A scratch per worker for the largest target block's links, and B
  // counters. The calling thread allocates them, so no worker thread's heap
  // keeps their pages once they are freed.
  std::size_t largest = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    largest = std::max<std::size_t>(largest, region[b + 1] - region[b]);
  }
  detail::NoFillVector<NodeId> scratch(workers * largest);
  detail::NoFillVector<std::uint32_t> counters(workers * block);
  over_blocks([&](std::size_t b, std::size_t w) {
    sort_and_decide(b, scratch.data() + w * largest, counters.data() + w * block);
  });
  // Close the gaps the rejected sources left, block by block from the
  // front: a block's survivors only ever move down.
  std::uint32_t out = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint32_t first = region[b];
    if (out != first) {
      std::copy_n(packed + first, kept[b], packed + out);
      const auto [lo, hi] = nodes_of(b);
      for (std::size_t v = lo; v < hi; ++v) reverse_.offsets[v] -= first - out;
    }
    out += kept[b];
  }
  reverse_.offsets[n] = out;
  // The slots past the survivors are never read again: hand their pages
  // back now rather than when the freeze frees the run.
  util::release_pages(packed + out, packed + reverse_.targets.size());
  reverse_.targets.resize(out);
}

OverlayGraph GraphBuilder::freeze(EdgeLayout layout) { return freeze_impl(nullptr, layout); }

OverlayGraph GraphBuilder::freeze(util::ThreadPool& pool, EdgeLayout layout) {
  return freeze_impl(&pool, layout);
}

OverlayGraph GraphBuilder::freeze_impl(util::ThreadPool* pool, EdgeLayout layout) {
  const std::size_t n = node_count_;
  short_.seal(n);
  long_.seal(n);
  reverse_.seal(n);
  detail::LinkRuns runs{{{short_.offsets, short_.targets},
                         {long_.offsets, long_.targets},
                         {reverse_.offsets, reverse_.targets}}};
  util::require(runs.link_count() <= std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder::freeze: edge slot index overflow");
  OverlayGraph g = [&] {
    if (layout == EdgeLayout::kCompact) {
      return OverlayGraph::freeze_compact(space_, std::move(positions_), runs, pool);
    }
    // The standard form keeps the concatenated slices as its flat edge
    // array; packing streams the runs into it, releasing them behind.
    detail::NoFillVector<std::uint32_t> slice_sizes(n);
    detail::NoFillVector<std::uint32_t> short_degree(n);
    detail::NoFillVector<NodeId> edges(runs.link_count());
    runs.stream(pool, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        slice_sizes[u] = runs.degree(u);
        short_degree[u] = runs.short_degree(u);
        NodeId* out = edges.data() + runs.slot_base(u);
        runs.for_each_link(u, [&out](NodeId v) { *out++ = v; });
      }
    });
    return OverlayGraph(space_, std::move(positions_), slice_sizes, std::move(short_degree),
                        std::move(edges));
  }();
  // Leave the builder empty rather than half-moved-from.
  short_ = {};
  long_ = {};
  reverse_ = {};
  positions_.clear();
  node_count_ = 0;
  closed_ = false;
  return g;
}

// ---------------------------------------------------------------------------
// Ideal (one-shot) construction

namespace {

std::vector<metric::Point> draw_present_positions(std::uint64_t grid_size,
                                                  double presence, util::Rng& rng) {
  std::vector<metric::Point> positions;
  positions.reserve(static_cast<std::size_t>(static_cast<double>(grid_size) * presence) + 16);
  // Re-draw until at least two nodes exist; with any sane presence this runs
  // once. (Theorem 17's analysis assumes a non-degenerate network.) The
  // re-draws stop at kMaxPresencePasses passes or once kMaxPresencePoints
  // points have been drawn, so a hopeless spec on a large grid throws after
  // one pass.
  std::uint64_t drawn = 0;
  for (std::size_t pass = 0; pass < kMaxPresencePasses; ++pass) {
    positions.clear();
    for (std::uint64_t p = 0; p < grid_size; ++p) {
      if (rng.next_bool(presence)) positions.push_back(static_cast<metric::Point>(p));
    }
    if (positions.size() >= 2) return positions;
    drawn += grid_size;
    if (drawn >= kMaxPresencePoints) break;
  }
  util::require(false, "build_overlay: presence too small to populate the grid");
  return positions;  // unreachable
}

/// Samples node u's long-link targets into `out[0..long_links)` using u's
/// private rng; `drawn` is scratch for long_links points. Read-only on the
/// builder, so any number of nodes can sample concurrently; a slot is
/// kInvalidNode when the draw produced no link.
void sample_power_law_targets(const GraphBuilder& g, const BuildSpec& spec,
                              const PowerLawLinkSampler& sampler, NodeId u,
                              util::Rng& rng, metric::Point* drawn, NodeId* out) {
  const bool sparse = spec.presence < 1.0;
  const metric::Point src = g.position(u);
  if (!sparse || spec.sparse_mode == BuildSpec::SparseLinkMode::kSnap) {
    // One draw per link: the node's whole set in one sampler loop.
    sampler.sample_targets(rng, src, drawn, spec.long_links);
    for (std::size_t k = 0; k < spec.long_links; ++k) {
      // On a full grid node ids are positions.
      const NodeId target = sparse ? g.node_nearest(drawn[k]) : static_cast<NodeId>(drawn[k]);
      out[k] = target == u ? kInvalidNode : target;
    }
    return;
  }
  constexpr int kMaxRejections = 256;
  for (std::size_t k = 0; k < spec.long_links; ++k) {
    NodeId target = kInvalidNode;
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
    out[k] = target == u ? kInvalidNode : target;
  }
}

/// The long-link sampling loop, optionally fanned over `pool`. Each node
/// samples from util::substream(base, u), so the built graph depends only on
/// (spec, rng) — serial and parallel builds of any thread count are
/// bit-identical. Sampling (the expensive part: one guided inverse-CDF
/// lookup per draw, plus rejection in sparse mode) runs in parallel into a
/// flat target table, which then becomes the builder's long-link run. On a
/// fully populated ring each chunk draws blocks of eight nodes through
/// PowerLawLinkSampler::sample_ring_block, where the CPU runs it; the
/// chunk's last few nodes, and every build the kernel does not serve, draw
/// node by node. Both make the same rng calls and write the same targets.
void add_power_law_links(GraphBuilder& g, const BuildSpec& spec, util::Rng& rng,
                         util::ThreadPool* pool) {
  if (spec.long_links == 0) return;  // before the base draw: no links, no rng use
  const PowerLawLinkSampler sampler(g.space(), spec.exponent);
  const std::uint64_t base = rng();
  const std::size_t n = g.size();
  const bool dense = spec.presence >= 1.0;
  LinkTable targets(n * spec.long_links);
  const auto sample_nodes = [&](std::size_t lo, std::size_t hi) {
    constexpr std::size_t kLanes = PowerLawLinkSampler::kBlockLanes;
    std::size_t u = lo;
    for (; dense && u + kLanes <= hi; u += kLanes) {
      util::Rng rngs[kLanes];
      metric::Point sources[kLanes];
      for (std::size_t i = 0; i < kLanes; ++i) {
        rngs[i] = util::substream(base, u + i);
        sources[i] = static_cast<metric::Point>(u + i);
      }
      if (!sampler.sample_ring_block(rngs, sources, spec.long_links,
                                     targets.data() + u * spec.long_links)) {
        break;
      }
    }
    std::vector<metric::Point> drawn(spec.long_links);
    for (; u < hi; ++u) {
      util::Rng node_rng = util::substream(base, u);
      sample_power_law_targets(g, spec, sampler, static_cast<NodeId>(u), node_rng, drawn.data(),
                               targets.data() + u * spec.long_links);
    }
  };
  if (fans(pool, n)) {
    pool->parallel_chunks(n, pool->thread_count() * 8, sample_nodes);
  } else {
    sample_nodes(0, n);
  }
  g.add_long_links(std::move(targets), spec.long_links);
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
/// per link, so an impossible spec fails fast instead of in an allocation.
void require_slot_budget(std::uint64_t nodes, std::uint64_t short_links,
                         std::uint64_t long_links, bool bidirectional, const char* what) {
  checked_node_count(nodes, what);
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
  return pool != nullptr ? builder.freeze(*pool, spec.layout) : builder.freeze(spec.layout);
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
