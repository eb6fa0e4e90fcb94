// The virtual overlay network: a directed graph over grid positions of a
// metric space (line, ring, or 2-D torus — see metric/space.h), frozen into
// a flat CSR layout.
//
// Nodes are identified by dense indices (NodeId); node i occupies grid
// position positions()[i]. In the common fully-populated case position ==
// NodeId; under binomial presence (§4.3.4.1) positions form a sparse sorted
// subset of the grid. Each node's adjacency slice stores its *short* links
// (immediate neighbours, always first) followed by its long-distance links —
// the split is what lets failure models keep ±1 links alive (§4.3.3 assumes
// "links to the immediate neighbours are always present").
//
// An OverlayGraph is immutable: GraphBuilder (graph_builder.h) assembles
// the links and freezes them once, and nothing changes a frozen graph.
// Failures and churn act through failure::FailureView, and §5 maintenance
// (core/construction.h) keeps its own storage and snapshots through a
// GraphBuilder. Two frozen representations share one query surface
// (EdgeLayout):
//
//  * kStandard — compressed sparse row with a 64-byte header per node
//    (CSR offsets + an inline replica of the first kInlineEdges slice
//    entries) over a canonical flat edge array plus a spill replica. The
//    router walks headers (one cache line per hop).
//
//  * kCompact — a memory-lean form for the 1e7–1e8 node scale sweeps: a
//    prefix-free 16-byte header per node (slot base, encoded stream base,
//    degree, short degree) over a single u16 stream. Each node's stream is
//    `degree` one-word slots followed by an exception array. Most long
//    links are metric-local, so slot i usually holds the zigzag of v - u; a
//    target out of that range stores kEscapeWord in its slot and its u32
//    absolute (two words, low half first) in the exception array, in slot
//    order. Every slot is one word at a fixed offset, so a vector decoder
//    reads 16 slots per step.
//    Headers and stream live in a util::Arena backed by transparent huge
//    pages. Slot numbering (edge_base(u) + i) is identical to the standard
//    form, so FailureViews and churn deltas key the same.
//
// Neighbour queries return a NeighborRange — a forward range that is a raw
// pointer walk on the standard layout and a two-cursor (slot, exception)
// decode on the compact one; operator[] is O(1) except on an escaped compact
// slot, which counts the escapes before it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "metric/space.h"
#include "util/arena.h"

namespace p2p::util {
class ThreadPool;
}  // namespace p2p::util

namespace p2p::graph {

/// Dense node index within an OverlayGraph.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Frozen edge representation (see file comment).
enum class EdgeLayout : std::uint8_t { kStandard, kCompact };

namespace detail {

/// std::allocator, except that a value-less construct default-initialises,
/// so resize() leaves trivial elements unwritten. For buffers whose every
/// slot is written before it is read: they then cost no fill pass, and their
/// pages are first touched by whichever thread writes them.
template <typename T>
struct NoFillAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoFillAllocator<U>;
  };
  NoFillAllocator() noexcept = default;
  template <typename U>
  NoFillAllocator(const NoFillAllocator<U>&) noexcept {}  // NOLINT: rebinding copy

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose resize() does not fill (see NoFillAllocator).
template <typename T>
using NoFillVector = std::vector<T, NoFillAllocator<T>>;

/// The index whose position equals p exactly, or kInvalidNode. `positions`
/// empty means the dense (position == index) case.
[[nodiscard]] NodeId node_at(const metric::Space& space,
                             std::span<const metric::Point> positions,
                             metric::Point p) noexcept;

/// The index whose position is closest to p (ties break to the lower
/// position). Preconditions: at least one node, space.contains(p).
/// O(log nodes) on a 1-D space (positions are sorted along the metric);
/// O(nodes) on a torus, whose flattened order is not metric order — sparse
/// 2-D overlays are a test-scale configuration, the torus builds dense.
/// The pool overload fans the torus scan; pass nullptr for the serial walk.
[[nodiscard]] NodeId node_nearest(const metric::Space& space,
                                  std::span<const metric::Point> positions,
                                  metric::Point p,
                                  util::ThreadPool* pool = nullptr) noexcept;

/// Slot word of an escaped compact link: its target is the next u32 of the
/// node's exception array. Any other slot word is the zigzag of (target - u).
inline constexpr std::uint16_t kEscapeWord = 0xFFFF;

/// Target of compact slot word w of source node u; `exc` addresses the
/// exception that belongs to w if w is escaped (not read otherwise).
inline NodeId decode_slot(std::uint16_t w, const std::uint16_t* exc,
                          NodeId u) noexcept {
  if (w != kEscapeWord) {
    // Zigzag decode: 0,1,2,3,... -> 0,-1,1,-2,...
    const std::int32_t d = static_cast<std::int32_t>(w >> 1) ^
                           -static_cast<std::int32_t>(w & 1u);
    return static_cast<NodeId>(static_cast<std::int64_t>(u) + d);
  }
  return static_cast<NodeId>(exc[0] | (static_cast<std::uint32_t>(exc[1]) << 16));
}

/// Decodes the compact link at `slot` of source node u; advances slot by one
/// word and, when the slot is escaped, exc past its two-word absolute.
inline NodeId decode_link(const std::uint16_t*& slot, const std::uint16_t*& exc,
                          NodeId u) noexcept {
  const std::uint16_t w = *slot++;
  const NodeId v = decode_slot(w, exc, u);
  if (w == kEscapeWord) exc += 2;
  return v;
}

/// Number of escaped slots among the n slots at `slot`.
inline std::size_t count_escapes(const std::uint16_t* slot, std::size_t n) noexcept {
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < n; ++i) escapes += slot[i] == kEscapeWord ? 1 : 0;
  return escapes;
}

/// Nodes per block of the streamed freeze (LinkRuns::stream). One block's
/// output is all that sits beside the full runs at the freeze's peak: on a
/// 2^19-node ring with 19 long links each way, 2^16 peaked ~6 MiB higher,
/// while 2^12 saved nothing more and only adds pool round trips.
inline constexpr std::size_t kFreezeBlockNodes = std::size_t{1} << 14;

/// The links a GraphBuilder hands to the freeze: three flat runs (short,
/// long, reverse), each an offsets array of size() + 1 entries over a NodeId
/// array. Node u's slice is its short, long and reverse links, in that
/// order, so it starts at the sum of its three runs' offsets.
struct LinkRuns {
  struct Run {
    std::span<const std::uint32_t> offsets;  // node u's links: [offsets[u], offsets[u + 1])
    std::span<NodeId> targets;
  };
  Run runs[3];  // short, long, reverse

  [[nodiscard]] std::size_t size() const noexcept { return runs[0].offsets.size() - 1; }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return runs[0].targets.size() + runs[1].targets.size() + runs[2].targets.size();
  }
  /// First flat slot of node u's slice.
  [[nodiscard]] std::uint32_t slot_base(std::size_t u) const noexcept {
    return runs[0].offsets[u] + runs[1].offsets[u] + runs[2].offsets[u];
  }
  [[nodiscard]] std::uint32_t degree(std::size_t u) const noexcept {
    return slot_base(u + 1) - slot_base(u);
  }
  [[nodiscard]] std::uint32_t short_degree(std::size_t u) const noexcept {
    return runs[0].offsets[u + 1] - runs[0].offsets[u];
  }
  /// Calls f(v) for every link u -> v, in slice order.
  template <typename F>
  void for_each_link(std::size_t u, F&& f) const {
    for (const Run& run : runs) {
      for (std::uint32_t i = run.offsets[u]; i < run.offsets[u + 1]; ++i) f(run.targets[i]);
    }
  }

  /// Runs body(lo, hi) over every node range of the graph: blocks of
  /// kFreezeBlockNodes in node order, each fanned across `pool` (when given)
  /// in disjoint sub-ranges. After each block it releases (util::release_pages)
  /// the whole pages of the three target arrays that lie below the block's
  /// last link, so the runs shrink as the frozen form grows; body must not
  /// read a link of an earlier block.
  void stream(util::ThreadPool* pool,
              const std::function<void(std::size_t, std::size_t)>& body);
};

}  // namespace detail

/// Forward range over a node's out-neighbours. On the standard layout this
/// is a contiguous NodeId slice; on the compact layout the iterator walks the
/// slot words and keeps a second cursor on the exception array, decoding
/// only positions it is dereferenced at. operator[] is O(1) standard and on
/// an in-range compact slot, O(i) on an escaped one.
class NeighborRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    iterator() = default;
    [[nodiscard]] NodeId operator*() const noexcept {
      return raw_ != nullptr ? raw_[i_] : detail::decode_slot(slot_[i_], exc_, u_);
    }
    iterator& operator++() noexcept {
      if (raw_ == nullptr && slot_[i_] == detail::kEscapeWord) exc_ += 2;
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) noexcept {
      return a.i_ != b.i_;
    }

   private:
    friend class NeighborRange;
    iterator(const NodeId* raw, const std::uint16_t* slot, const std::uint16_t* exc,
             NodeId u, std::size_t i) noexcept
        : raw_(raw), slot_(slot), exc_(exc), u_(u), i_(i) {}

    const NodeId* raw_ = nullptr;
    const std::uint16_t* slot_ = nullptr;
    const std::uint16_t* exc_ = nullptr;  // exception of the next escaped slot
    NodeId u_ = 0;
    std::size_t i_ = 0;
  };

  /// Standard-layout range over a contiguous slice.
  NeighborRange(const NodeId* raw, std::size_t n) noexcept : raw_(raw), n_(n) {}
  /// Compact-layout range over n slots of node u; `exc` addresses the
  /// exception of the first escaped slot among them.
  NeighborRange(const std::uint16_t* slot, const std::uint16_t* exc, NodeId u,
                std::size_t n) noexcept
      : slot_(slot), exc_(exc), u_(u), n_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] iterator begin() const noexcept {
    return iterator(raw_, slot_, exc_, u_, 0);
  }
  [[nodiscard]] iterator end() const noexcept {
    return iterator(raw_, slot_, exc_, u_, n_);
  }
  /// O(1) on the standard layout and on an in-range compact slot; an
  /// escaped compact slot counts the escapes before it, O(i).
  [[nodiscard]] NodeId operator[](std::size_t i) const noexcept {
    if (raw_ != nullptr) return raw_[i];
    const std::uint16_t w = slot_[i];
    if (w != detail::kEscapeWord) return detail::decode_slot(w, nullptr, u_);
    return detail::decode_slot(w, exc_ + 2 * detail::count_escapes(slot_, i), u_);
  }
  [[nodiscard]] NodeId front() const noexcept { return (*this)[0]; }

 private:
  const NodeId* raw_ = nullptr;
  const std::uint16_t* slot_ = nullptr;
  const std::uint16_t* exc_ = nullptr;
  NodeId u_ = 0;
  std::size_t n_ = 0;
};

/// Directed overlay graph embedded in a metric::Space, stored as CSR with a
/// cache-line header per node for the routing hot path (standard layout) or
/// as a delta-encoded stream behind 16-byte headers (compact layout).
class OverlayGraph {
 public:
  /// Slice-prefix length replicated inside each node's standard header. With
  /// the paper's lg n long links per node, the prefix covers the two short
  /// links plus most long links of any practical configuration.
  static constexpr std::size_t kInlineEdges = 13;

  /// Standard per-node header: CSR offsets plus the inline slice prefix.
  /// Exactly one cache line so a routing hop costs one header load for most
  /// nodes. The vectorized select loads the whole line as sixteen u32 lanes
  /// and shifts the inline ids down three lanes, so the shape is pinned.
  struct alignas(64) NodeHeader {
    std::uint32_t offset = 0;  ///< flat slot base into edges_
    std::uint32_t tail = 0;    ///< spill base into tail_ (slice entries > kInlineEdges)
    std::uint32_t degree = 0;  ///< out-degree
    NodeId inline_edges[kInlineEdges] = {};
  };
  static_assert(sizeof(NodeHeader) == 64 && alignof(NodeHeader) == 64);
  static_assert(offsetof(NodeHeader, inline_edges) == 3 * sizeof(std::uint32_t));

  /// Compact per-node header: four per cache line. `enc` addresses the
  /// node's stream start in 4-byte (two-u16-word) units — per-node streams
  /// (`degree` slot words, then two words per escaped slot) are padded to an
  /// even word count — so a u32 field spans the ~5e9-word streams a
  /// 1e8-node overlay needs.
  struct alignas(16) CompactHeader {
    std::uint32_t offset = 0;        ///< flat slot base (same keying as standard)
    std::uint32_t enc = 0;           ///< stream start, in 2-word units
    std::uint32_t degree = 0;        ///< out-degree
    std::uint16_t short_degree = 0;  ///< immediate-neighbour prefix length
    /// Escaped slots, saturated at kEscapesSaturated (the sentinel stores
    /// 0). With the degree it gives the stream's length from u's own header,
    /// so select_extent() need not read the next node's.
    std::uint16_t escapes = 0;
  };
  static_assert(sizeof(CompactHeader) == 16);

  /// CompactHeader::escapes of a node with this many escaped slots or more;
  /// select_extent() then reads the stream's end from the next header.
  static constexpr std::uint16_t kEscapesSaturated = 0xFFFF;

  /// The bytes a vectorized select of u may load past u's header (on the
  /// standard layout the inline ids load as the whole 64-byte header line),
  /// each load counted at its full vector width: a masked load or
  /// expand-load pulls in every cache line its width spans, masked-out lanes
  /// included. That is the compact slot + exception stream, or the standard
  /// spill tail (empty when the degree fits the inline prefix), plus the 64
  /// bytes one full-width load may reach past its last element.
  struct SelectExtent {
    const std::byte* begin;
    const std::byte* end;

    /// True when [p, p + bytes) lies inside [begin, end).
    [[nodiscard]] bool covers(const void* p, std::size_t bytes) const noexcept {
      const auto* b = static_cast<const std::byte*>(p);
      return b >= begin && b + bytes <= end;
    }
  };

  /// Graphs come from GraphBuilder::freeze (or build_overlay and friends).
  OverlayGraph(const OverlayGraph& other);
  OverlayGraph& operator=(const OverlayGraph& other);
  OverlayGraph(OverlayGraph&&) noexcept = default;
  OverlayGraph& operator=(OverlayGraph&&) noexcept = default;
  ~OverlayGraph() = default;

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }

  /// Number of nodes (not grid points).
  [[nodiscard]] std::size_t size() const noexcept { return node_count_; }

  /// True when node i sits at grid position i (no sparse position table).
  [[nodiscard]] bool dense() const noexcept { return positions_.empty(); }

  /// The frozen edge representation this graph uses.
  [[nodiscard]] EdgeLayout layout() const noexcept { return layout_; }
  [[nodiscard]] bool compact() const noexcept {
    return layout_ == EdgeLayout::kCompact;
  }

  /// Grid position of node u. Precondition: u < size().
  [[nodiscard]] metric::Point position(NodeId u) const noexcept {
    return positions_.empty() ? static_cast<metric::Point>(u) : positions_[u];
  }

  /// The node occupying grid position p exactly, or kInvalidNode.
  [[nodiscard]] NodeId node_at(metric::Point p) const noexcept {
    return detail::node_at(space_, positions_, p);
  }

  /// The node whose position is closest to p (ties break to the lower
  /// position). Precondition: size() > 0 and space().contains(p). The pool
  /// overload fans the torus-sparse O(n) scan across workers.
  [[nodiscard]] NodeId node_nearest(metric::Point p) const noexcept {
    return detail::node_nearest(space_, positions_, p);
  }
  [[nodiscard]] NodeId node_nearest(metric::Point p,
                                    util::ThreadPool& pool) const noexcept {
    return detail::node_nearest(space_, positions_, p, &pool);
  }

  /// All out-neighbours of u: short links first, then long links.
  [[nodiscard]] NeighborRange neighbors(NodeId u) const noexcept {
    if (layout_ == EdgeLayout::kCompact) {
      const CompactHeader& h = cheaders_[u];
      return {enc_stream(h), enc_exceptions(h), u, h.degree};
    }
    const NodeHeader& h = headers_[u];
    return {edges_.data() + h.offset, h.degree};
  }

  /// Long-distance out-neighbours of u only.
  [[nodiscard]] NeighborRange long_neighbors(NodeId u) const noexcept {
    if (layout_ == EdgeLayout::kCompact) {
      const CompactHeader& h = cheaders_[u];
      const std::uint16_t* slot = enc_stream(h);
      return {slot + h.short_degree,
              enc_exceptions(h) + 2 * detail::count_escapes(slot, h.short_degree),
              u, h.degree - h.short_degree};
    }
    const NodeHeader& h = headers_[u];
    return {edges_.data() + h.offset + short_degree_[u],
            h.degree - short_degree_[u]};
  }

  /// The standard-layout routing hot-path view of u's links: the header
  /// cache line (inline prefix) plus the spill pointer for entries beyond
  /// kInlineEdges. header(u).inline_edges[i] for i < kInlineEdges and
  /// tail(u)[i - kInlineEdges] otherwise equal neighbors(u)[i]. Standard
  /// layout only — compact routing reads cheader()/enc_stream().
  [[nodiscard]] const NodeHeader& header(NodeId u) const noexcept {
    return headers_[u];
  }
  [[nodiscard]] const NodeId* tail(const NodeHeader& h) const noexcept {
    return tail_.data() + h.tail;
  }

  /// Compact-layout counterparts of header()/tail(): the node's slot words
  /// (enc_stream) and the exception array behind them (enc_exceptions).
  [[nodiscard]] const CompactHeader& cheader(NodeId u) const noexcept {
    return cheaders_[u];
  }
  [[nodiscard]] const std::uint16_t* enc_stream(const CompactHeader& h) const noexcept {
    return enc_ + (static_cast<std::size_t>(h.enc) * 2);
  }
  [[nodiscard]] const std::uint16_t* enc_exceptions(
      const CompactHeader& h) const noexcept {
    return enc_stream(h) + h.degree;
  }

  /// Decodes all of u's targets into out (compact layout; caller provides
  /// >= out_degree(u) slots). Returns the degree.
  std::size_t decode_links(NodeId u, NodeId* out) const noexcept {
    const CompactHeader& h = cheaders_[u];
    const std::uint16_t* slot = enc_stream(h);
    const std::uint16_t* exc = enc_exceptions(h);
    for (std::uint32_t i = 0; i < h.degree; ++i) {
      out[i] = detail::decode_link(slot, exc, u);
    }
    return h.degree;
  }

  // Both prefetch helpers are always_inline: GCC infers an out-of-line
  // helper that only prefetches to be pure, and deletes its void call.

  /// Prefetches u's header (the single line a routing hop reads first).
  [[gnu::always_inline]] void prefetch(NodeId u) const noexcept {
    if (layout_ == EdgeLayout::kCompact) {
      __builtin_prefetch(&cheaders_[u]);
    } else {
      __builtin_prefetch(&headers_[u]);
    }
  }

  /// The load footprint of a vectorized select of u (see SelectExtent).
  /// Compact: the stream's slot words and 2·escapes exception words, read
  /// from u's own header (a saturated count falls back to the next node's
  /// stream start), + 64 bytes. Standard: the spill tail + 64 bytes.
  [[gnu::always_inline]] SelectExtent select_extent(NodeId u) const noexcept {
    constexpr std::size_t kVector = 64;
    if (layout_ == EdgeLayout::kCompact) {
      const CompactHeader& h = cheaders_[u];
      const std::uint16_t* stream = enc_stream(h);
      std::size_t words = std::size_t{h.degree} + 2 * std::size_t{h.escapes};
      if (h.escapes == kEscapesSaturated) [[unlikely]] {
        words = static_cast<std::size_t>(enc_stream(cheaders_[u + 1]) - stream);
      }
      const auto* begin = reinterpret_cast<const std::byte*>(stream);
      return {begin, begin + words * sizeof(std::uint16_t) + kVector};
    }
    const NodeHeader& h = headers_[u];
    const auto* begin = reinterpret_cast<const std::byte*>(tail_.data() + h.tail);
    const std::size_t spill = h.degree > kInlineEdges ? h.degree - kInlineEdges : 0;
    return {begin, spill == 0 ? begin : begin + spill * sizeof(NodeId) + kVector};
  }

  /// Prefetches every line a select of u loads past its header: exactly
  /// select_extent(u)'s [begin, end). The extent lives in u's header, so
  /// this is only useful once the header is resident — the batch pipeline
  /// issues it a few ticks ahead of the hop.
  [[gnu::always_inline]] void prefetch_spill(NodeId u) const noexcept {
    const SelectExtent e = select_extent(u);
    prefetch_lines(e.begin, e.end);
  }

  /// Number of short (immediate-neighbour) links of u.
  [[nodiscard]] std::size_t short_degree(NodeId u) const noexcept {
    return layout_ == EdgeLayout::kCompact ? cheaders_[u].short_degree
                                           : short_degree_[u];
  }

  [[nodiscard]] std::size_t out_degree(NodeId u) const noexcept {
    return layout_ == EdgeLayout::kCompact ? cheaders_[u].degree
                                           : headers_[u].degree;
  }

  /// Flat slot index of u's first link; link i of u lives in slot
  /// edge_base(u) + i. Failure views use this to key per-link state; the
  /// numbering is identical across layouts built from the same adjacency.
  [[nodiscard]] std::size_t edge_base(NodeId u) const noexcept {
    return layout_ == EdgeLayout::kCompact ? cheaders_[u].offset
                                           : headers_[u].offset;
  }

  /// Total number of link slots, one per directed link. Flat slot indices
  /// are < edge_slots().
  [[nodiscard]] std::size_t edge_slots() const noexcept {
    return layout_ == EdgeLayout::kCompact ? cheaders_[node_count_].offset
                                           : edges_.size();
  }

  /// Total number of directed links in the graph (== edge_slots()).
  [[nodiscard]] std::size_t link_count() const noexcept { return edge_slots(); }

  /// True when u has any link to v.
  [[nodiscard]] bool has_link(NodeId u, NodeId v) const noexcept;

  /// Metric distance between two nodes' positions.
  [[nodiscard]] metric::Distance node_distance(NodeId u, NodeId v) const noexcept {
    return space_.distance(position(u), position(v));
  }

  /// In-degrees of every node — O(links) scan; the pool overload fans it.
  [[nodiscard]] std::vector<std::uint32_t> in_degrees() const;
  [[nodiscard]] std::vector<std::uint32_t> in_degrees(util::ThreadPool& pool) const;

  /// Lengths of every long-distance link (for Figure 5 style histograms).
  [[nodiscard]] std::vector<metric::Distance> long_link_lengths() const;

  /// Per-layer accounting of the frozen representation's resident bytes.
  struct MemoryBreakdown {
    std::size_t headers = 0;        ///< NodeHeader / CompactHeader array
    std::size_t edges = 0;          ///< canonical slices / encoded stream
    std::size_t tail = 0;           ///< spill replica (standard only)
    std::size_t short_degrees = 0;  ///< cold sideband (standard only)
    std::size_t positions = 0;      ///< sparse position table
    [[nodiscard]] std::size_t total() const noexcept {
      return headers + edges + tail + short_degrees + positions;
    }
  };
  [[nodiscard]] MemoryBreakdown memory_breakdown() const noexcept;
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return memory_breakdown().total();
  }

  /// What the same adjacency costs in the standard layout (analytic:
  /// 64 B/header + sentinel, the 4 B short-degree sideband, 4 B per edge
  /// slot, and the spill replica of every slice entry beyond the inline
  /// prefix). Equals memory_breakdown() minus `positions` on an actual
  /// standard-layout graph; on a compact graph it is the denominator of the
  /// bytes/node comparison.
  [[nodiscard]] std::size_t standard_layout_bytes() const noexcept;

 private:
  friend class GraphBuilder;

  /// Frozen-form constructor used by GraphBuilder::freeze. `slice_sizes[u]`
  /// is the degree of node u; `edges` is the concatenated slices.
  OverlayGraph(metric::Space space, std::vector<metric::Point> positions,
               std::span<const std::uint32_t> slice_sizes,
               detail::NoFillVector<std::uint32_t> short_degree,
               detail::NoFillVector<NodeId> edges);

  /// Compact frozen-form factory used by GraphBuilder::freeze with
  /// EdgeLayout::kCompact: encodes `runs` straight into the arena-backed
  /// stream. A first pass sizes every node's stream into its header; the
  /// encode pass then streams the runs (LinkRuns::stream), releasing their
  /// pages behind it, so the caller must not read them afterwards. `pool`
  /// (optional) fans both passes. Defined in compact_freeze.cpp: both passes
  /// run detail::freeze_kernel(n)'s code, sixteen links per step with
  /// AVX-512 where the CPU has it, else the scalar reference.
  static OverlayGraph freeze_compact(metric::Space space,
                                     std::vector<metric::Point> positions,
                                     detail::LinkRuns runs, util::ThreadPool* pool);

  /// Tag ctor for freeze_compact: space/positions only, edge state unset.
  struct CompactTag {};
  OverlayGraph(metric::Space space, std::vector<metric::Point> positions,
               CompactTag) noexcept;

  /// Prefetches every cache line overlapping [begin, end). The first,
  /// second and last lines go out unconditionally (the second clamped to the
  /// last), so a span of up to three lines — nearly every node's adjacency —
  /// takes no data-dependent branch; the loop adds the lines in between for
  /// a longer span. A plain per-line loop mispredicts its exit on the 2-vs-3
  /// line split, which cost ~5 % on a cache-resident graph.
  [[gnu::always_inline]] static void prefetch_lines(const void* begin,
                                                    const void* end) noexcept {
    constexpr std::uintptr_t kLine = 64;
    const auto first = reinterpret_cast<std::uintptr_t>(begin);
    const auto stop = reinterpret_cast<std::uintptr_t>(end);
    if (first == stop) return;
    const std::uintptr_t last = stop - 1;
    const std::uintptr_t second = first + kLine < last ? first + kLine : last;
    __builtin_prefetch(reinterpret_cast<const void*>(first));
    __builtin_prefetch(reinterpret_cast<const void*>(second));
    __builtin_prefetch(reinterpret_cast<const void*>(last));
    for (std::uintptr_t a = (first & ~(kLine - 1)) + 2 * kLine;
         a < (last & ~(kLine - 1)); a += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(a));
    }
  }

  metric::Space space_;
  std::vector<metric::Point> positions_;     // empty when dense
  std::size_t node_count_ = 0;
  EdgeLayout layout_ = EdgeLayout::kStandard;

  // Standard layout.
  std::vector<NodeHeader> headers_;          // size()+1: last entry is the sentinel
  detail::NoFillVector<std::uint32_t> short_degree_;  // cold: router never reads it
  detail::NoFillVector<NodeId> edges_;  // canonical flat slices, shorts first
  std::vector<NodeId> tail_;                 // spill replica of slice entries > prefix

  // Compact layout (arena-backed; pointers index into arena_ chunks).
  util::Arena arena_{util::Arena::kDefaultChunkBytes};
  const CompactHeader* cheaders_ = nullptr;  // size()+1: sentinel carries ends
  const std::uint16_t* enc_ = nullptr;       // concatenated per-node streams
  std::uint64_t enc_words_ = 0;              // total u16 words incl. padding
};

}  // namespace p2p::graph
