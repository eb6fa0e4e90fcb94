// Overlay assembly: GraphBuilder, the only way to make an OverlayGraph, and
// the ideal (one-shot) construction of §4.3.
//
// Overlays are built in two phases. A GraphBuilder appends links, in node
// order, to three flat runs (short links, long links, and the reverses
// make_bidirectional adds), each one offsets array over one NodeId array;
// freeze() then reads node u's slice as short(u) ‖ long(u) ‖ reverse(u) and
// streams the runs, in blocks of nodes, into the immutable OverlayGraph the
// routing hot path wants: the compact layout encodes them straight into its
// arena, the standard one packs them into its flat edge array. Behind each
// block the runs' pages go back to the OS, so a build peaks at about the
// runs alone, not the runs plus a copy. Building costs O(nodes + links) time
// and a few words per link, with no per-node heap block. No pass fills a
// buffer it is about to overwrite: the runs' targets are
// util::NoFillHpVectors, whose blocks of 1 MiB or more sit on 2 MiB pages
// (a 2^19-node build then takes a few thousand page faults, not tens of
// thousands), and the offsets arrays and scratch are heap
// detail::NoFillVectors. A graph that must change (§5 maintenance, test
// fixtures) is rebuilt through a new builder.
//
// build_overlay realizes the random graph of §4.3 directly: every node links
// to its nearest neighbour on either side plus ℓ long-distance neighbours
// drawn from the configured distribution. This is the "ideal network" of
// Figure 7; the incremental §5 heuristic lives in core/construction.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/link_distribution.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::graph {

/// A row-major long-link table for GraphBuilder::add_long_links, and the
/// storage of every builder run. Its resize() leaves the entries unwritten
/// (the sampler writes every one), and a table of 1 MiB or more is mapped on
/// transparent huge pages (util::NoFillHugePageAllocator).
using LinkTable = util::NoFillHpVector<NodeId>;

/// First phase of overlay construction; freeze() yields the CSR
/// OverlayGraph. Each kind of link is appended in node order, and no short
/// link of u may follow a long link of u or of a later node: wire the short
/// links, then add the long links node by node. make_bidirectional() then
/// adds the missing reverses and closes the builder to further links. An
/// append that breaks this order throws std::logic_error.
class GraphBuilder {
 public:
  /// A builder whose node i sits at grid position i (fully populated grid).
  /// Throws std::invalid_argument, before allocating, when the space holds
  /// more points than the NodeId range can name.
  explicit GraphBuilder(metric::Space space);

  /// A builder over a sparse, strictly increasing set of occupied positions.
  /// Preconditions: positions sorted strictly increasing, all within space,
  /// and no more of them than the NodeId range can name.
  GraphBuilder(metric::Space space, std::vector<metric::Point> positions);

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t size() const noexcept { return node_count_; }

  /// Grid position of node u. Precondition: u < size().
  [[nodiscard]] metric::Point position(NodeId u) const noexcept {
    return positions_.empty() ? static_cast<metric::Point>(u) : positions_[u];
  }

  /// The node occupying grid position p exactly, or kInvalidNode.
  [[nodiscard]] NodeId node_at(metric::Point p) const noexcept {
    return detail::node_at(space_, positions_, p);
  }

  /// The node whose position is closest to p (ties break to the lower
  /// position). Precondition: size() > 0 and space().contains(p).
  [[nodiscard]] NodeId node_nearest(metric::Point p) const noexcept {
    return detail::node_nearest(space_, positions_, p);
  }

  /// Appends a short (immediate-neighbour) link u -> v. Throws
  /// std::logic_error when u or a later node already has a long link, or a
  /// later node a short link, and std::invalid_argument when u already has
  /// 65,535 short links (the compact header's 16-bit short degree).
  void add_short_link(NodeId u, NodeId v);

  /// Appends a long-distance link u -> v. Throws std::logic_error when a
  /// later node already has a long link.
  void add_long_link(NodeId u, NodeId v);

  /// Appends every long link of a row-major table: row u (`per_node`
  /// entries) lists node u's targets, kInvalidNode marking a draw that made
  /// no link. The table becomes the long-link storage, so no link is copied
  /// out: one pass checks every entry and drops the holes in place. Throws
  /// std::logic_error unless no long link was added before,
  /// std::invalid_argument unless the table has size() * per_node entries,
  /// and std::out_of_range on a target that names no node.
  void add_long_links(LinkTable targets, std::size_t per_node);

  /// True when u already has any link to v.
  [[nodiscard]] bool has_link(NodeId u, NodeId v) const noexcept;

  /// Wires every node to its nearest occupied neighbour on each side
  /// (wrapping on a ring): node u's short slice is u + 1, then u - 1, each
  /// where it exists. Writes the whole short run in one pass, so it must
  /// come first: throws std::logic_error once any link was added. 1-D
  /// spaces only (throws std::invalid_argument on a torus — lattice wiring
  /// is build_kleinberg_overlay's).
  void wire_short_links();

  /// Adds the reverse of every long link not already present, making the
  /// whole overlay usable in both directions (see BuildSpec::bidirectional).
  /// Node v gains v -> u for each distinct u with a long link u -> v that
  /// v's links so far lack, in ascending u. Cost O(nodes + links · degree)
  /// at worst, O(nodes + links) as a rule: a transpose of the long links in
  /// blocks of transpose_block_nodes(n) nodes, whose last pass sorts each
  /// target block's sources in cache and decides them node by node, where a
  /// 256-bit filter of the node's own links clears most sources without
  /// scanning them. Memory beside the runs: a count per (source block,
  /// target block), at most ⌈√n⌉² u32, about 4 bytes per node; and one
  /// scratch per worker, sized to the largest block's long links plus a
  /// counter per block node (~0.3 MiB on a 2^19-node ring with 19 long
  /// links per node). Afterwards no link can be added; a second call adds
  /// nothing.
  void make_bidirectional();

  /// As make_bidirectional(), fanning the transpose's three passes (over
  /// source blocks, then target blocks) across `pool`. Every block's output
  /// lands at an offset fixed by the counts, so the result is bit-identical
  /// to the serial overload for any thread count.
  void make_bidirectional(util::ThreadPool& pool);

  /// Nodes per block of make_bidirectional's transpose on an n-node
  /// builder: the least power of two B with B² >= n, clamped to
  /// [2^12, 2^16]. The (source block, target block) count table then has at
  /// most ⌈√n⌉² entries, a link packs both its in-block ends into one u32,
  /// and a target block's sort (B counters plus its sources) stays in L2.
  [[nodiscard]] static std::size_t transpose_block_nodes(std::size_t n) noexcept;

  /// Streams the accumulated links into a frozen OverlayGraph in `layout`
  /// (kStandard: the 64-byte-header CSR with inline/spill replicas; kCompact:
  /// the 16-byte-header delta-encoded arena form, ~2x leaner), releasing the
  /// link runs' pages block by block behind the encode (or pack). The
  /// builder is consumed: left empty (size 0) afterwards.
  [[nodiscard]] OverlayGraph freeze(EdgeLayout layout = EdgeLayout::kStandard);

  /// As freeze(), fanning the per-node work of every node block (the
  /// compact size and encode passes, or the standard slice copies) across
  /// `pool`. Bit-identical to the serial overload: every slice lands at an
  /// offset fixed by the runs' offsets.
  [[nodiscard]] OverlayGraph freeze(util::ThreadPool& pool,
                                    EdgeLayout layout = EdgeLayout::kStandard);

 private:
  /// One flat run of links: node u's are targets[offsets[u], offsets[u + 1]).
  /// Appends come in node order, so offsets holds the start of every node
  /// up to the last one appended to; seal() closes the remaining ranges.
  struct Run {
    detail::NoFillVector<std::uint32_t> offsets;
    LinkTable targets;

    /// Throws std::logic_error when a node after u already has a link here.
    void append(NodeId u, NodeId v);
    /// Gives offsets its n + 1 entries.
    void seal(std::size_t n);
    /// Node u's links, sealed or not.
    [[nodiscard]] std::span<const NodeId> slice(std::size_t u) const noexcept {
      if (u >= offsets.size()) return {};
      const std::size_t end = u + 1 < offsets.size() ? offsets[u + 1] : targets.size();
      return {targets.data() + offsets[u], end - offsets[u]};
    }
  };

  void check_node(NodeId u) const;
  void check_open() const;

  void add_missing_reverses(util::ThreadPool* pool);

  [[nodiscard]] OverlayGraph freeze_impl(util::ThreadPool* pool, EdgeLayout layout);

  metric::Space space_;
  std::vector<metric::Point> positions_;  // empty when dense
  std::size_t node_count_ = 0;
  Run short_;
  Run long_;
  Run reverse_;  // filled by make_bidirectional
  bool closed_ = false;  // make_bidirectional ran
};

/// Most passes over the grid that build_overlay draws node presence in.
inline constexpr std::size_t kMaxPresencePasses = 1024;
/// Grid points after which build_overlay draws no further presence pass.
inline constexpr std::uint64_t kMaxPresencePoints = std::uint64_t{1} << 22;

/// Parameters of an ideal overlay build.
struct BuildSpec {
  /// Number of grid points of the metric space.
  std::uint64_t grid_size = 1024;

  /// kLine or kRing; the torus is built by build_kleinberg_overlay.
  metric::Space::Kind topology = metric::Space::Kind::kRing;

  /// How long-distance links are generated.
  enum class LinkModel {
    kPowerLaw,    ///< ℓ links, P ∝ d^-exponent (the paper's main model)
    kBaseBFull,   ///< offsets {j·bⁱ} both directions (Theorem 14)
    kBaseBPowers  ///< offsets {bⁱ} both directions (Theorem 16)
  };
  LinkModel link_model = LinkModel::kPowerLaw;

  /// Long links per node for kPowerLaw (drawn independently with
  /// replacement, as in Theorem 13).
  std::size_t long_links = 1;

  /// Power-law exponent r (1 = the paper's distribution; 0 = uniform).
  double exponent = 1.0;

  /// Base b of the deterministic strategies.
  unsigned base = 2;

  /// Binomial node presence (§4.3.4.1): each grid point holds a node
  /// independently with this probability. 1.0 = fully populated. Every
  /// point is re-drawn while fewer than two nodes result, up to
  /// kMaxPresencePasses passes over the grid or kMaxPresencePoints points in
  /// all, whichever comes first (one pass at least); build_overlay then
  /// throws std::invalid_argument.
  double presence = 1.0;

  /// How long links resolve when the sampled grid point has no node
  /// (only relevant when presence < 1).
  enum class SparseLinkMode {
    kRejection,  ///< re-draw until an occupied point is hit: the distribution
                 ///< conditioned on existence (Theorem 17's model)
    kSnap        ///< connect to the node closest to the sampled point
                 ///< (§5's basin-of-attraction behaviour)
  };
  SparseLinkMode sparse_mode = SparseLinkMode::kRejection;

  /// When set, every long link is usable in both directions (the reverse
  /// link is added unless already present). §2 models links as "n knows m's
  /// network address"; once contacted, both endpoints know each other, so
  /// the §6 experiments treat the overlay as bidirectional. The §4 theorems
  /// analyze directed out-links, so the analytical benches keep this off.
  bool bidirectional = false;

  /// Frozen representation of the built graph (see GraphBuilder::freeze).
  EdgeLayout layout = EdgeLayout::kStandard;
};

/// Builds a frozen overlay per `spec` through a GraphBuilder. All randomness
/// comes from `rng`: each node samples its long links from a private
/// util::substream, so the result depends only on (spec, rng). A node's
/// draws run in one PowerLawLinkSampler::sample_targets loop (except under
/// rejection sampling, which re-draws one link at a time). On a fully
/// populated ring, eight nodes at a time draw side by side in the AVX-512
/// kernel PowerLawLinkSampler::sample_ring_block instead, wherever the CPU
/// reports AVX-512F/DQ/VL at run time; there is no switch, since both paths
/// make the same rng calls and build the same graph.
///
/// Throws std::invalid_argument on malformed specs (grid_size < 2,
/// presence outside (0,1], exponent < 0, base < 2) and, before allocating,
/// on specs too large to freeze: grid_size beyond the NodeId range, or
/// nodes × (2 + long_links), long links counted twice when bidirectional,
/// beyond the u32 edge slot index.
[[nodiscard]] OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng);

/// As above, fanning the long-link sampling loop, make_bidirectional's
/// transpose passes, and the freeze's per-block passes across `pool`.
/// Bit-identical to the serial overload for any thread count.
/// Must not be called from inside a task already running on `pool`.
[[nodiscard]] OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng,
                                         util::ThreadPool& pool);

/// Builds Kleinberg's small-world torus (§2, [5]) as a frozen CSR overlay on
/// the shared routing hot path: side × side nodes, each wired to its four
/// lattice neighbours (short links; the two distinct ones at side 2, where
/// ±1 coincide) plus `long_links` long-range links drawn with
/// P ∝ d^-exponent under wrapped Manhattan distance. Long links are
/// directed, as in Kleinberg's model; lattice links exist both ways by
/// symmetry. Randomness follows the build_overlay contract: one substream
/// per node, so the graph depends only on (side, long_links, exponent, rng)
/// and serial and pooled builds are bit-identical.
///
/// Preconditions (throws std::invalid_argument): side >= 2, exponent >= 0,
/// long_links == 0 allowed (bare lattice), side² nodes within the NodeId
/// range and side² × (4 + long_links) within the u32 edge slot index — the
/// last two checked before allocating.
[[nodiscard]] OverlayGraph build_kleinberg_overlay(std::uint32_t side,
                                                   std::size_t long_links,
                                                   double exponent, util::Rng& rng);

/// As above, fanning the long-link sampling and the freeze across `pool`.
[[nodiscard]] OverlayGraph build_kleinberg_overlay(std::uint32_t side,
                                                   std::size_t long_links,
                                                   double exponent, util::Rng& rng,
                                                   util::ThreadPool& pool);

}  // namespace p2p::graph
