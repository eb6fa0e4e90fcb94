#include "graph/overlay_graph.h"

#include <algorithm>
#include <atomic>

#include "util/require.h"
#include "util/thread_pool.h"

namespace p2p::graph {

namespace detail {

NodeId node_at(const metric::Space& space,
               std::span<const metric::Point> positions, metric::Point p) noexcept {
  if (positions.empty()) {
    return space.contains(p) ? static_cast<NodeId>(p) : kInvalidNode;
  }
  const auto it = std::lower_bound(positions.begin(), positions.end(), p);
  if (it == positions.end() || *it != p) return kInvalidNode;
  return static_cast<NodeId>(it - positions.begin());
}

NodeId node_nearest(const metric::Space& space,
                    std::span<const metric::Point> positions, metric::Point p,
                    util::ThreadPool* pool) noexcept {
  if (positions.empty()) {
    return space.contains(p) ? static_cast<NodeId>(p) : kInvalidNode;
  }
  NodeId best = kInvalidNode;
  metric::Distance best_d = 0;
  const auto consider = [&](std::size_t idx) {
    const auto id = static_cast<NodeId>(idx);
    const metric::Distance d = space.distance(positions[idx], p);
    if (best == kInvalidNode || d < best_d ||
        (d == best_d && positions[idx] < positions[best])) {
      best = id;
      best_d = d;
    }
  };
  if (!space.one_dimensional()) {
    // Flattened row-major order is not metric order on a torus, so the
    // sorted-positions bisection below does not apply; scan. The pool fans
    // the scan with a chunk-deterministic reduction (ties break to the lower
    // position exactly as the serial walk does — positions are strictly
    // increasing, so lower index == lower position).
    if (pool != nullptr && positions.size() >= 4096) {
      struct Best {
        NodeId id = kInvalidNode;
        metric::Distance d = 0;
      };
      const Best top = pool->parallel_reduce(
          positions.size(), pool->thread_count() * 4, Best{},
          [&](std::size_t lo, std::size_t hi) {
            Best b;
            for (std::size_t idx = lo; idx < hi; ++idx) {
              const metric::Distance d = space.distance(positions[idx], p);
              if (b.id == kInvalidNode || d < b.d) {
                b.id = static_cast<NodeId>(idx);
                b.d = d;
              }
            }
            return b;
          },
          [](Best acc, Best part) {
            if (part.id == kInvalidNode) return acc;
            if (acc.id == kInvalidNode || part.d < acc.d) return part;
            return acc;  // equal distance: earlier chunk == lower position
          });
      return top.id;
    }
    for (std::size_t idx = 0; idx < positions.size(); ++idx) consider(idx);
    return best;
  }
  const auto it = std::lower_bound(positions.begin(), positions.end(), p);
  // Candidate indices around the insertion point; on a ring also the two ends
  // (wraparound neighbours).
  if (it != positions.end()) consider(static_cast<std::size_t>(it - positions.begin()));
  if (it != positions.begin())
    consider(static_cast<std::size_t>(it - positions.begin()) - 1);
  if (space.kind() == metric::Space::Kind::kRing) {
    consider(0);
    consider(positions.size() - 1);
  }
  return best;
}

}  // namespace detail

OverlayGraph::OverlayGraph(metric::Space space, std::vector<metric::Point> positions,
                           std::span<const std::uint32_t> slice_sizes,
                           detail::NoFillVector<std::uint32_t> short_degree,
                           detail::NoFillVector<NodeId> edges)
    : space_(space),
      positions_(std::move(positions)),
      short_degree_(std::move(short_degree)),
      edges_(std::move(edges)) {
  const std::size_t n = slice_sizes.size();
  node_count_ = n;
  headers_.resize(n + 1);
  std::uint32_t offset = 0;
  std::uint32_t tail = 0;
  for (std::size_t u = 0; u < n; ++u) {
    NodeHeader& h = headers_[u];
    const std::uint32_t degree = slice_sizes[u];
    h.offset = offset;
    h.tail = tail;
    h.degree = degree;
    const std::uint32_t inl =
        degree < kInlineEdges ? degree : static_cast<std::uint32_t>(kInlineEdges);
    for (std::uint32_t i = 0; i < inl; ++i) h.inline_edges[i] = edges_[offset + i];
    tail += degree - inl;
    offset += degree;
  }
  headers_[n].offset = offset;
  headers_[n].tail = tail;
  tail_.resize(tail);
  for (std::size_t u = 0; u < n; ++u) {
    const NodeHeader& h = headers_[u];
    for (std::uint32_t i = kInlineEdges; i < h.degree; ++i) {
      tail_[h.tail + i - kInlineEdges] = edges_[h.offset + i];
    }
  }
}

OverlayGraph::OverlayGraph(metric::Space space, std::vector<metric::Point> positions,
                           CompactTag) noexcept
    : space_(space),
      positions_(std::move(positions)),
      layout_(EdgeLayout::kCompact) {}

OverlayGraph::OverlayGraph(const OverlayGraph& other)
    : space_(other.space_),
      positions_(other.positions_),
      node_count_(other.node_count_),
      layout_(other.layout_),
      headers_(other.headers_),
      short_degree_(other.short_degree_),
      edges_(other.edges_),
      tail_(other.tail_) {
  if (other.layout_ == EdgeLayout::kCompact) {
    auto* ch = arena_.allocate_array<CompactHeader>(node_count_ + 1);
    std::copy_n(other.cheaders_, node_count_ + 1, ch);
    auto* stream = arena_.allocate_array<std::uint16_t>(other.enc_words_);
    std::copy_n(other.enc_, other.enc_words_, stream);
    cheaders_ = ch;
    enc_ = stream;
    enc_words_ = other.enc_words_;
  }
}

OverlayGraph& OverlayGraph::operator=(const OverlayGraph& other) {
  if (this != &other) *this = OverlayGraph(other);
  return *this;
}

void detail::LinkRuns::stream(util::ThreadPool* pool,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t n = size();
  void* released[3] = {runs[0].targets.data(), runs[1].targets.data(), runs[2].targets.data()};
  for (std::size_t lo = 0; lo < n; lo += kFreezeBlockNodes) {
    const std::size_t hi = std::min(n, lo + kFreezeBlockNodes);
    if (pool != nullptr && hi - lo >= 1024) {
      pool->parallel_chunks(hi - lo, pool->thread_count() * 4,
                            [&](std::size_t a, std::size_t b) { body(lo + a, lo + b); });
    } else {
      body(lo, hi);
    }
    for (std::size_t r = 0; r < 3; ++r) {
      released[r] = util::release_pages(released[r], runs[r].targets.data() + runs[r].offsets[hi]);
    }
  }
}

bool OverlayGraph::has_link(NodeId u, NodeId v) const noexcept {
  const auto adj = neighbors(u);
  return std::find(adj.begin(), adj.end(), v) != adj.end();
}

std::vector<std::uint32_t> OverlayGraph::in_degrees() const {
  std::vector<std::uint32_t> degrees(size(), 0);
  for (NodeId u = 0; u < size(); ++u) {
    for (const NodeId v : neighbors(u)) ++degrees[v];
  }
  return degrees;
}

std::vector<std::uint32_t> OverlayGraph::in_degrees(util::ThreadPool& pool) const {
  std::vector<std::uint32_t> degrees(size(), 0);
  if (size() == 0) return degrees;
  // One shared output array with relaxed atomic bumps: in-degree targets are
  // near-uniform, so contention is negligible and no per-chunk partial
  // arrays (4n bytes each — prohibitive at 1e8) are needed.
  pool.parallel_chunks(
      size(), pool.thread_count() * 4, [&](std::size_t lo, std::size_t hi) {
        for (NodeId u = static_cast<NodeId>(lo); u < hi; ++u) {
          for (const NodeId v : neighbors(u)) {
            std::atomic_ref<std::uint32_t>(degrees[v])
                .fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  return degrees;
}

std::vector<metric::Distance> OverlayGraph::long_link_lengths() const {
  std::vector<metric::Distance> lengths;
  lengths.reserve(link_count());
  for (NodeId u = 0; u < size(); ++u) {
    for (NodeId v : long_neighbors(u)) {
      lengths.push_back(node_distance(u, v));
    }
  }
  return lengths;
}

OverlayGraph::MemoryBreakdown OverlayGraph::memory_breakdown() const noexcept {
  MemoryBreakdown m;
  m.positions = positions_.size() * sizeof(metric::Point);
  if (layout_ == EdgeLayout::kCompact) {
    m.headers = (node_count_ + 1) * sizeof(CompactHeader);
    m.edges = static_cast<std::size_t>(enc_words_) * sizeof(std::uint16_t);
  } else {
    m.headers = headers_.size() * sizeof(NodeHeader);
    m.edges = edges_.size() * sizeof(NodeId);
    m.tail = tail_.size() * sizeof(NodeId);
    m.short_degrees = short_degree_.size() * sizeof(std::uint32_t);
  }
  return m;
}

std::size_t OverlayGraph::standard_layout_bytes() const noexcept {
  const std::size_t n = node_count_;
  std::size_t spill = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t deg = out_degree(u);
    if (deg > kInlineEdges) spill += deg - kInlineEdges;
  }
  return (n + 1) * sizeof(NodeHeader) + n * sizeof(std::uint32_t) +
         edge_slots() * sizeof(NodeId) + spill * sizeof(NodeId);
}

}  // namespace p2p::graph
