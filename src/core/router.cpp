#include "core/router.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/route_telemetry.h"
#include "core/secure_router.h"
#include "failure/reputation.h"
#include "telemetry/flight_recorder.h"
#include "util/require.h"

namespace p2p::core {

bool simd_decode_supported() noexcept {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

namespace {

/// Router-lifetime invariants of the vectorized selection: x86 CPU with
/// AVX-512F/BW/VL, dense graph (position == id, so ids load straight into vector
/// lanes), two-sided greedy, positions narrow enough for the
/// (distance << 32 | id) key packing, and no RouterConfig::force_scalar.
bool simd_select_eligible(const graph::OverlayGraph& g,
                          const RouterConfig& cfg) noexcept {
  // Every metric kind has a vectorized scan of any rank — in intact and
  // failure-masked (dead links / dead targets) variants: the 1-D kernel
  // packs line/ring distances, the torus kernel splits row/col by reciprocal
  // multiplication. size <= 2^32 keeps ids and distances inside the
  // (dist << 32 | id) key packing — and, on the torus, bounds the side by
  // 2^16, the domain where the double-reciprocal coordinate split is exact.
  return simd_decode_supported() && !cfg.force_scalar && g.dense() &&
         cfg.sidedness == Sidedness::kTwoSided &&
         g.space().size() <= 0xffffffffull;
}

/// RouterConfig::ttl, or max(64, 8·⌈lg(n + 1)⌉²) hops when it is 0.
std::size_t hop_budget(std::size_t ttl, std::size_t nodes) noexcept {
  if (ttl != 0) return ttl;
  const double lg = std::ceil(std::log2(static_cast<double>(nodes) + 1.0));
  const auto budget = static_cast<std::size_t>(8.0 * lg * lg);
  return budget < 64 ? 64 : budget;
}

}  // namespace

Router::Router(const graph::OverlayGraph& g, const failure::FailureView& view,
               RouterConfig config)
    : graph_(&g), view_(&view), config_(config), ttl_(hop_budget(config.ttl, g.size())) {
  util::require(&view.graph() == &g, "Router: view must be over the same graph");
  util::require(config_.backtrack_window >= 1, "Router: backtrack_window must be >= 1");
  // §4.2.1's one-sided variant needs an ordering of the space ("never
  // traverses a link that would take it past its target"), which only the
  // line and the ring define; reject the combination here rather than
  // silently misroute on a 2-D metric.
  util::require(g.space().one_dimensional() ||
                    config_.sidedness == Sidedness::kTwoSided,
                "Router: one-sided routing requires a one-dimensional metric "
                "(line or ring)");
  util::require(config_.reputation == nullptr ||
                    &config_.reputation->graph() == &g,
                "Router: reputation table must be over the same graph");
  simd_ok_ = simd_select_eligible(g, config_);
}

namespace {

/// Scalar core of select_candidate, compiled once per (layout, trust-check,
/// dense, link-check, node-check, sidedness) combination so the common
/// configurations run with no per-neighbour flag tests at all. It serves
/// every router the vectorized kernels cannot (no AVX-512, sparse graph,
/// one-sided, RouterConfig::force_scalar). Candidates order by
/// (distance-to-target, node id); duplicate links to the same neighbour
/// collapse. Streaming k-th order statistic: each round takes the minimum
/// pair strictly greater than the previous round's.
///
/// `trusted` is the reputation distrust sideband (trusted_bytes());
/// dereferenced only when kCheckTrust, nullptr otherwise.
///
/// On the compact layout each round re-decodes the node's slot and
/// exception cursors in place of the inline/spill walk; slot indices
/// (h.offset + i) are identical across layouts, so the failure-mask queries
/// don't change shape.
///
/// A self-link (v == u) can never be selected — its distance equals du and
/// every round filters to dv < du — so no explicit check is needed.
template <bool kCompact, bool kCheckTrust, bool kDense, bool kCheckLinks,
          bool kCheckNodes, bool kOneSided>
graph::NodeId select_impl(const graph::OverlayGraph& g,
                          const failure::FailureView& view,
                          const std::uint8_t* trusted, graph::NodeId u,
                          metric::Point target, std::size_t rank) noexcept {
  constexpr std::size_t kInline = graph::OverlayGraph::kInlineEdges;
  const metric::Space& space = g.space();
  const metric::Point up = g.position(u);
  const metric::Distance du = space.distance(up, target);
  // Standard layout: one header cache line carries the offsets and the
  // inline slice prefix; the rest of the slice lives in the spill array,
  // which is small enough to stay cache-resident (and prefetched ahead by
  // the batch pipeline). Compact layout: the 16-byte header points at the
  // node's slot words and exception array.
  const graph::OverlayGraph::NodeHeader* h = nullptr;
  const graph::OverlayGraph::CompactHeader* ch = nullptr;
  const graph::NodeId* tail = nullptr;
  std::uint32_t degree;
  std::size_t slot_base;
  if constexpr (kCompact) {
    ch = &g.cheader(u);
    degree = ch->degree;
    slot_base = ch->offset;
  } else {
    h = &g.header(u);
    tail = g.tail(*h);
    degree = h->degree;
    slot_base = h->offset;
  }
  const auto inline_n =
      degree < kInline ? degree : static_cast<std::uint32_t>(kInline);

  metric::Distance prev_d = 0;
  graph::NodeId prev_v = graph::kInvalidNode;
  bool have_prev = false;
  for (;;) {
    // best_d seeded with du realizes the strictly-closer filter without a
    // separate compare in the first round (the hot case).
    metric::Distance best_d = du;
    graph::NodeId best_v = graph::kInvalidNode;
    const auto consider = [&](graph::NodeId v, std::uint32_t i) {
      if constexpr (kCheckLinks) {
        if (!view.link_alive_at(slot_base + i)) return;
      }
      if constexpr (kCheckNodes) {
        if (!view.node_alive(v)) return;
      }
      if constexpr (kCheckTrust) {
        if (trusted[v] == 0) return;
      }
      const metric::Point vp = kDense ? static_cast<metric::Point>(v) : g.position(v);
      const metric::Distance dv = space.distance(vp, target);
      if constexpr (kOneSided) {
        if (dv < du && !space.between(vp, up, target)) {
          return;  // would overshoot the target
        }
      }
      if (have_prev) {
        if (dv >= du) return;
        if (dv < prev_d || (dv == prev_d && v <= prev_v)) return;
        if (best_v != graph::kInvalidNode &&
            (dv > best_d || (dv == best_d && v >= best_v))) {
          return;
        }
        best_d = dv;
        best_v = v;
        g.prefetch(v);
        return;
      }
      if (dv < best_d) {
        best_d = dv;
        best_v = v;
        // The winner is the node whose header the next hop will read; start
        // pulling it in while the scan finishes.
        g.prefetch(v);
      } else if (dv == best_d && best_v != graph::kInvalidNode && v < best_v) {
        best_v = v;
      }
    };
    if constexpr (kCompact) {
      const std::uint16_t* slot = g.enc_stream(*ch);
      const std::uint16_t* exc = g.enc_exceptions(*ch);
      for (std::uint32_t i = 0; i < degree; ++i) {
        consider(graph::detail::decode_link(slot, exc, u), i);
      }
    } else {
      for (std::uint32_t i = 0; i < inline_n; ++i) consider(h->inline_edges[i], i);
      for (std::uint32_t i = kInline; i < degree; ++i)
        consider(tail[i - kInline], i);
    }
    if (best_v == graph::kInvalidNode) return graph::kInvalidNode;
    if (rank == 0) return best_v;
    --rank;
    prev_d = best_d;
    prev_v = best_v;
    have_prev = true;
  }
}

using SelectFn = graph::NodeId (*)(const graph::OverlayGraph&,
                                   const failure::FailureView&,
                                   const std::uint8_t*, graph::NodeId,
                                   metric::Point, std::size_t) noexcept;

template <std::size_t... Is>
constexpr std::array<SelectFn, 64> make_select_table(std::index_sequence<Is...>) {
  return {select_impl<(Is & 32) != 0, (Is & 16) != 0, (Is & 8) != 0,
                      (Is & 4) != 0, (Is & 2) != 0, (Is & 1) != 0>...};
}

constexpr std::array<SelectFn, 64> kSelectTable =
    make_select_table(std::make_index_sequence<64>{});

/// The view and reputation state that picks a select kernel variant. When
/// nothing has ever failed, the liveness bitsets are empty and both
/// knowledge models admit every link, so the link and node masks drop out
/// of the kernel outright. The distrust mask gates the same way: while the
/// reputation table distrusts nobody (or none is wired) selection costs
/// exactly what it did before reputation existed.
struct SelectMasks {
  bool links = false;
  bool nodes = false;
  bool trust = false;
  const std::uint8_t* trusted = nullptr;  // the trust sideband, when `trust`

  /// Index into the vector kernel tables: (links?4:0) | (nodes?2:0) |
  /// (trust?1:0).
  [[nodiscard]] std::size_t simd_index() const noexcept {
    return (links ? 4u : 0u) | (nodes ? 2u : 0u) | (trust ? 1u : 0u);
  }
};

SelectMasks select_masks(const Router& r) noexcept {
  SelectMasks m;
  m.links = !r.view().links_intact();
  m.nodes = r.config().knowledge == Knowledge::kLiveness && !r.view().nodes_intact();
  const failure::ReputationTable* rep = r.config().reputation;
  m.trust = rep != nullptr && rep->distrusted_count() != 0;
  m.trusted = m.trust ? rep->trusted_bytes() : nullptr;
  return m;
}

/// The scalar table entry for router r under masks m.
SelectFn scalar_select_fn(const Router& r, const SelectMasks& m) noexcept {
  const graph::OverlayGraph& g = r.graph();
  const bool one_sided = r.config().sidedness == Sidedness::kOneSided;
  return kSelectTable[(g.compact() ? 32u : 0u) | (m.trust ? 16u : 0u) |
                      (g.dense() ? 8u : 0u) | (m.links ? 4u : 0u) |
                      (m.nodes ? 2u : 0u) | (one_sided ? 1u : 0u)];
}

/// A scalar table entry as a selector.
struct ScalarSelect {
  SelectFn select;
  const graph::OverlayGraph& g;
  const failure::FailureView& view;
  const std::uint8_t* trusted;  // the trust sideband, when the entry checks it

  graph::NodeId operator()(graph::NodeId u, metric::Point target,
                           std::size_t rank) const noexcept {
    return select(g, view, trusted, u, target, rank);
  }
};

}  // namespace

template <class Session>
void WalkPipeline<Session>::capture_retired(const Lane& lane) {
  if constexpr (kHopCapture && telemetry::kCompiledIn) {
    if (telemetry_ != nullptr) telemetry_->record(results_[lane.query]);
    if (trace_ != nullptr && lane.trail != kNoTrail) {
      trace_->end(lane.trail, static_cast<std::uint8_t>(results_[lane.query].status));
    }
  }
}

/// The one tick loop. Each tick: the lookahead prefetch, one step of the
/// current lane, hop capture, and retire + refill or drain. Every advance()
/// runs this body; on an AVX-512 router with_select inlines it with the
/// kernel.
template <class Session>
template <class Select>
std::size_t WalkPipeline<Session>::walk(std::size_t n, bool& live,
                                        [[maybe_unused]] const Select& select) {
  if (!live || n == 0) return 0;
  if (lanes_.empty()) {
    live = false;
    return 1;
  }
  const graph::OverlayGraph& g = router_->graph();
  std::size_t ran = 0;
  while (ran < n) {
    ++ran;
    if (prefetch_distance_ != 0 && prefetch_distance_ < lanes_.size()) {
      // The lane stepped prefetch_distance ticks from now: its header is
      // already resident (the select of its previous step, or the
      // construction/refill prefetch, pulled it a full rotation ago), which
      // lets us chase one level deeper and pull every adjacency line its
      // select will read — the compact slot + exception stream, or a
      // standard node's spill tail — the dependent load a lone search eats
      // serially. Lanes compact on retire, so the lookahead always hits a
      // live search; rings already smaller than the lookahead skip it
      // (lines are warm).
      std::size_t ahead = cursor_ + prefetch_distance_;
      if (ahead >= lanes_.size()) ahead -= lanes_.size();
      g.prefetch_spill(lanes_[ahead].session.current());
    }
    Lane& lane = lanes_[cursor_];
    [[maybe_unused]] const auto moved = [&] {
      if constexpr (kHopCapture) {
        return lane.session.step(lane.rng, select);
      } else {
        return lane.session.step(lane.rng);  // secure sessions select on their own
      }
    }();
    if constexpr (kHopCapture && telemetry::kCompiledIn) {
      // Hop capture touches only sampled lanes; untraced batches pay one
      // predicted-not-taken branch here (compiled out under
      // P2P_TELEMETRY=OFF).
      if (trace_ != nullptr && lane.trail != kNoTrail && moved.has_value()) {
        trace_->hop(lane.trail, *moved, lane.session.last_rank(),
                    router_->view().epoch());
      }
    }
    if (lane.session.finished()) {
      results_[lane.query] = lane.session.result();
      last_retired_ = lane.query;
      ++retired_;
      if constexpr (kHopCapture && telemetry::kCompiledIn) {
        if (telemetry_ != nullptr || trace_ != nullptr) capture_retired(lane);
      }
      if (next_query_ < queries_.size()) {
        const std::size_t refill = next_query_++;
        lane.session.restart(queries_[refill].src, queries_[refill].target);
        lane.rng = util::substream(seed_base_, refill);
        lane.query = refill;
        if constexpr (kHopCapture && telemetry::kCompiledIn) {
          if (trace_ != nullptr)
            lane.trail = trace_->begin(refill, queries_[refill].src);
        }
        g.prefetch(lane.session.current());  // first header of the new search
      } else {
        // Drain phase: compact the retired lane out of the ring so rotation
        // and lookahead only ever touch live searches. The lane moved into
        // this slot is stepped on the next tick, never skipped.
        if (&lane != &lanes_.back()) lane = std::move(lanes_.back());
        lanes_.pop_back();
        if (cursor_ == lanes_.size()) cursor_ = 0;
        if (lanes_.empty()) {
          live = false;
          return ran;
        }
        continue;
      }
    }
    if (++cursor_ == lanes_.size()) cursor_ = 0;
  }
  return ran;
}

namespace {

#if defined(__x86_64__) && defined(__GNUC__)
#define P2P_HAVE_AVX512_SELECT 1
// The scans are AVX-512F; the compact decode's masked u16 load also needs
// BW and VL. simd_decode_supported() checks all three. The kernel pieces are
// forced inline: outlined, they pass the metric and the masks through
// memory, which costs the standard masked scan ~15 %.
#define P2P_AVX512_ISA "avx512f,avx512bw,avx512vl"
#define P2P_AVX512_TARGET __attribute__((target(P2P_AVX512_ISA)))
#define P2P_AVX512_INLINE __attribute__((target(P2P_AVX512_ISA), always_inline))

// GCC's _mm512_* expansions seed results from _mm512_undefined_epi32, which
// -Wmaybe-uninitialized flags at -O3; the intrinsics are correct as written.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
/// The first `left` of sixteen lanes.
P2P_AVX512_INLINE
inline __mmask16 first_lanes(std::uint32_t left) noexcept {
  return left >= 16 ? static_cast<__mmask16>(0xffff)
                    : static_cast<__mmask16>((1u << left) - 1u);
}

/// One 16-slot step of the compact decode, in registers: a masked u16 load
/// widened to u32, the zigzag decode plus u, then one expand-load fills the
/// escaped lanes from the exception array (escaped absolutes in slot order)
/// and `exc` advances past them. Nothing branches on the data. Both loads
/// stay inside select_extent(u) at their full width: 32 bytes of slot words,
/// and 64 bytes from the group's first exception.
P2P_AVX512_INLINE
inline __m512i avx512_decode16(
    const std::uint16_t* slots, __mmask16 m, const std::uint16_t*& exc, __m512i vu,
    [[maybe_unused]] const graph::OverlayGraph::SelectExtent& extent) noexcept {
  assert(extent.covers(slots, 16 * sizeof(std::uint16_t)));
  assert(extent.covers(exc, 16 * sizeof(std::uint32_t)));
  const __m512i w = _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(m, slots));
  // Zigzag: (w >> 1) ^ -(w & 1); u + d wraps exactly as the scalar decode.
  const __m512i d = _mm512_xor_si512(
      _mm512_srli_epi32(w, 1),
      _mm512_sub_epi32(_mm512_setzero_si512(),
                       _mm512_and_si512(w, _mm512_set1_epi32(1))));
  const __mmask16 esc =
      _mm512_mask_cmpeq_epi32_mask(m, w, _mm512_set1_epi32(graph::detail::kEscapeWord));
  const __m512i v = _mm512_mask_expandloadu_epi32(_mm512_add_epi32(vu, d), esc, exc);
  exc += 2 * static_cast<unsigned>(__builtin_popcount(esc));
  return v;
}

/// Debug-build bounds of the gathers, whose loads ASan does not see: true
/// when every active lane's index is below `bound` (sixteen u32 lanes with
/// a bound below 2^32, or eight u64 lanes). Only assert() calls these, so
/// NDEBUG builds drop them.
P2P_AVX512_INLINE
inline bool lanes_below(__m512i idx, __mmask16 m, std::uint32_t bound) noexcept {
  return _mm512_mask_cmp_epu32_mask(m, idx, _mm512_set1_epi32(static_cast<int>(bound)),
                                    _MM_CMPINT_NLT) == 0;
}
P2P_AVX512_INLINE
inline bool lanes_below(__m512i idx, __mmask8 m, std::uint64_t bound) noexcept {
  return _mm512_mask_cmp_epu64_mask(m, idx, _mm512_set1_epi64(static_cast<long long>(bound)),
                                    _MM_CMPINT_NLT) == 0;
}

/// Line/ring distance of eight ids to the target: |id - t|, wrapped on the
/// ring. simd_ok_ admits dense graphs only, so an id is its position. Built
/// once per space; aim() sets the target of each select.
struct LineMetric {
  __m512i vt;
  __m512i vn;
  bool ring;

  P2P_AVX512_TARGET
  explicit LineMetric(const metric::Space& space) noexcept
      : vt(_mm512_setzero_si512()),
        vn(_mm512_set1_epi64(static_cast<long long>(space.size()))),
        ring(space.kind() == metric::Space::Kind::kRing) {}

  P2P_AVX512_INLINE
  void aim(metric::Point target) noexcept {
    vt = _mm512_set1_epi64(static_cast<long long>(target));
  }

  P2P_AVX512_INLINE
  __m512i distance(__m512i vid) const noexcept {
    const __m512i diff = _mm512_abs_epi64(_mm512_sub_epi64(vid, vt));
    return ring ? _mm512_min_epu64(diff, _mm512_sub_epi64(vn, diff)) : diff;
  }
};

/// Torus distance of eight ids to the target: each flattened id is split
/// into (row, col) and scored by wrapped Manhattan distance.
///
/// The split is id / side via a double-precision reciprocal: ids are < 2^32
/// (exact in a double) and sides < 2^16 (simd_ok_ bounds size by 2^32), so
/// the truncated product is off by at most one — only at exact multiples of
/// the side — and a two-sided masked fixup (col wrapped negative → row-1,
/// col >= side → row+1) restores floor division exactly. This keeps the
/// whole scan in AVX-512F: the only integer multiply needed is row * side,
/// which fits vpmuludq's 32-bit operands. Without it the scalar path burns
/// two 64-bit divides per neighbour and the torus hop is compute-bound
/// instead of memory-bound. The reciprocal is taken once per space; aim()
/// splits each select's target with the same step, so no select divides.
struct TorusMetric {
  __m512i vtr;
  __m512i vtc;
  __m512i vside;
  __m512d vinv_side;

  P2P_AVX512_TARGET
  explicit TorusMetric(const metric::Space& space) noexcept
      : vtr(_mm512_setzero_si512()),
        vtc(_mm512_setzero_si512()),
        vside(_mm512_set1_epi64(static_cast<long long>(space.side()))),
        vinv_side(_mm512_set1_pd(1.0 / static_cast<double>(space.side()))) {}

  P2P_AVX512_INLINE
  void aim(metric::Point target) noexcept {
    split(_mm512_set1_epi64(static_cast<long long>(target)), vtr, vtc);
  }

  /// (row, col) of eight ids: floor(id / side) by the reciprocal, fixed up.
  P2P_AVX512_INLINE
  void split(__m512i vid, __m512i& vrow, __m512i& vcol) const noexcept {
    const __m512i vone = _mm512_set1_epi64(1);
    const __m256i ids32 = _mm512_cvtepi64_epi32(vid);
    const __m256i row32 = _mm512_cvttpd_epu32(
        _mm512_mul_pd(_mm512_cvtepu32_pd(ids32), vinv_side));
    vrow = _mm512_cvtepu32_epi64(row32);
    vcol = _mm512_sub_epi64(vid, _mm512_mul_epu32(vrow, vside));
    // Overestimated row: col wrapped negative (appears as > 2^32 - 1).
    const __mmask8 over = _mm512_cmp_epu64_mask(
        vcol, _mm512_set1_epi64(0xffffffffll), _MM_CMPINT_NLE);
    vrow = _mm512_mask_sub_epi64(vrow, over, vrow, vone);
    vcol = _mm512_mask_add_epi64(vcol, over, vcol, vside);
    // Underestimated row: col landed in [side, 2*side).
    const __mmask8 under = _mm512_cmp_epu64_mask(vcol, vside, _MM_CMPINT_NLT);
    vrow = _mm512_mask_add_epi64(vrow, under, vrow, vone);
    vcol = _mm512_mask_sub_epi64(vcol, under, vcol, vside);
  }

  P2P_AVX512_INLINE
  __m512i distance(__m512i vid) const noexcept {
    __m512i vrow;
    __m512i vcol;
    split(vid, vrow, vcol);
    // Wrapped Manhattan distance to the (pre-split) target.
    const __m512i drd = _mm512_abs_epi64(_mm512_sub_epi64(vrow, vtr));
    const __m512i dr = _mm512_min_epu64(drd, _mm512_sub_epi64(vside, drd));
    const __m512i dcd = _mm512_abs_epi64(_mm512_sub_epi64(vcol, vtc));
    const __m512i dc = _mm512_min_epu64(dcd, _mm512_sub_epi64(vside, dcd));
    return _mm512_add_epi64(dr, dc);
  }
};

/// The group body of every rank pass: sixteen u32 ids and their lane mask.
/// It narrows the mask by the group's link-liveness bits (kCheckLinks), by a
/// gather of the view's node-dead words (kCheckNodes: 32-bit word v >> 5,
/// then bit v & 31) and by a byte gather on the reputation table's trusted
/// sideband (kCheckTrust). A dead link, dead target or distrusted target
/// then simply never contributes to the minimum: the per-candidate branch of
/// the scalar path, hoisted into mask arithmetic. Each 8-lane half packs its
/// admissible neighbours into the key
///   key(v) = (distance(v, target) << 32) | v
/// so the lexicographic (distance, id) minimum — ties to the lower id — is a
/// single unsigned 64-bit min. Keys below the pass's floor and masked-out
/// lanes keep the running minimum unchanged. Integer-only AVX-512 on the
/// line and ring, so no meaningful license downclocking.
template <bool kCheckLinks, bool kCheckNodes, bool kCheckTrust, class Metric>
struct Fold16 {
  const Metric& metric;
  const failure::FailureView& view;
  const std::uint64_t* dead_words;  // FailureView::node_dead_words() (kCheckNodes)
  const std::uint8_t* trusted;      // ReputationTable::trusted_bytes() (kCheckTrust)

  /// Folds one group into vbest. `live` holds the group's link-liveness
  /// bits from bit 0 (read only when kCheckLinks).
  P2P_AVX512_INLINE
  __m512i operator()(__m512i vbest, __m512i vfloor, __m512i vid, __mmask16 m,
                     std::uint64_t live) const noexcept {
    if constexpr (kCheckLinks) m &= static_cast<__mmask16>(live);
    if constexpr (kCheckNodes) {
      const __m512i word = _mm512_srli_epi32(vid, 5);
      assert(lanes_below(word, m, static_cast<std::uint32_t>((view.graph().size() + 31) / 32)) &&
             "node-dead gather: word index past the bitset");
      const __m512i words =
          _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, word, dead_words, 4);
      const __m512i dead =
          _mm512_srlv_epi32(words, _mm512_and_si512(vid, _mm512_set1_epi32(31)));
      m = _mm512_mask_testn_epi32_mask(m, dead, _mm512_set1_epi32(1));
    }
    const __m512i lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(vid));
    const __m512i hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(vid, 1));
    __mmask8 mlo = static_cast<__mmask8>(m);
    __mmask8 mhi = static_cast<__mmask8>(m >> 8);
    if constexpr (kCheckTrust) {
      // trusted[v] is 0 or 1, so bit 0 of the gathered dword is the verdict.
      // Gathered on the widened ids: a 32-bit index would sign-extend ids
      // >= 2^31 below the base.
      assert(lanes_below(lo, mlo, view.graph().size()) &&
             "trust gather: low-half id past the node count");
      assert(lanes_below(hi, mhi, view.graph().size()) &&
             "trust gather: high-half id past the node count");
      const __m256i vone8 = _mm256_set1_epi32(1);
      mlo = _mm256_mask_test_epi32_mask(
          mlo, _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), mlo, lo, trusted, 1), vone8);
      mhi = _mm256_mask_test_epi32_mask(
          mhi, _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), mhi, hi, trusted, 1), vone8);
    }
    const __m512i klo = _mm512_or_epi64(_mm512_slli_epi64(metric.distance(lo), 32), lo);
    const __m512i khi = _mm512_or_epi64(_mm512_slli_epi64(metric.distance(hi), 32), hi);
    mlo = _mm512_mask_cmp_epu64_mask(mlo, klo, vfloor, _MM_CMPINT_NLT);
    mhi = _mm512_mask_cmp_epu64_mask(mhi, khi, vfloor, _MM_CMPINT_NLT);
    vbest = _mm512_mask_min_epu64(vbest, mlo, vbest, klo);
    return _mm512_mask_min_epu64(vbest, mhi, vbest, khi);
  }

  /// The smallest admissible key >= floor among u's links (all ones when
  /// none is). Compact: the stream decoded sixteen slots at a time in
  /// registers, any degree. Standard: the thirteen inline ids from one
  /// aligned load of the header line, shifted down past offset, tail and
  /// degree, then the spill tail sixteen ids at a time. Link-liveness words
  /// cover 64 slots, and groups advance by 16 from a segment's first slot,
  /// so a group's bits never straddle the fetched window.
  template <bool kCompact>
  P2P_AVX512_INLINE std::uint64_t min_key(const graph::OverlayGraph& g, graph::NodeId u,
                                          std::uint64_t floor) const noexcept {
    [[maybe_unused]] const graph::OverlayGraph::SelectExtent extent = g.select_extent(u);
    const __m512i vfloor = _mm512_set1_epi64(static_cast<long long>(floor));
    __m512i vbest = _mm512_set1_epi64(-1);
    std::uint64_t live = 0;
    if constexpr (kCompact) {
      const graph::OverlayGraph::CompactHeader& ch = g.cheader(u);
      const std::uint16_t* slots = g.enc_stream(ch);
      const std::uint16_t* exc = g.enc_exceptions(ch);
      const __m512i vu = _mm512_set1_epi32(static_cast<int>(u));
      for (std::uint32_t i = 0; i < ch.degree; i += 16) {
        const __mmask16 m = first_lanes(ch.degree - i);
        const __m512i vid = avx512_decode16(slots + i, m, exc, vu, extent);
        if constexpr (kCheckLinks) {
          if ((i & 63u) == 0) live = view.link_live_word(ch.offset + i);
        }
        vbest = (*this)(vbest, vfloor, vid, m, live >> (i & 63u));
      }
    } else {
      constexpr std::uint32_t kInline = graph::OverlayGraph::kInlineEdges;
      const graph::OverlayGraph::NodeHeader& h = g.header(u);
      if (h.degree == 0) return ~std::uint64_t{0};
      const __m512i vid = _mm512_alignr_epi32(_mm512_setzero_si512(),
                                              _mm512_load_si512(&h), 3);
      if constexpr (kCheckLinks) live = view.link_live_word(h.offset);
      vbest = (*this)(vbest, vfloor, vid, first_lanes(std::min(h.degree, kInline)), live);
      const graph::NodeId* tail = g.tail(h);
      for (std::uint32_t j = 0; j + kInline < h.degree; j += 16) {
        const __mmask16 m = first_lanes(h.degree - kInline - j);
        assert(extent.covers(tail + j, 16 * sizeof(graph::NodeId)));
        const __m512i ids = _mm512_maskz_loadu_epi32(m, tail + j);
        if constexpr (kCheckLinks) {
          if ((j & 63u) == 0) live = view.link_live_word(h.offset + kInline + j);
        }
        vbest = (*this)(vbest, vfloor, ids, m, live >> (j & 63u));
      }
    }
    return _mm512_reduce_min_epu64(vbest);
  }
};

/// The rank-th candidate of u. Pass r takes the minimum key >= floor and
/// then sets floor = best + 1, so it returns the smallest (distance, id)
/// strictly greater than the previous pass's pick: the scalar rank rule,
/// duplicate links collapsing the same way. The strictly-closer filter needs
/// no per-lane mask: a pick is admissible iff its key is < (du << 32), and a
/// self-link or any not-closer neighbour can never beat that.
template <bool kCompact, class Fold>
P2P_AVX512_INLINE
inline graph::NodeId avx512_select_ranked(const graph::OverlayGraph& g, const Fold& fold,
                                          graph::NodeId u, metric::Distance du,
                                          std::size_t rank) noexcept {
  const std::uint64_t limit = static_cast<std::uint64_t>(du) << 32;
  std::uint64_t best = fold.template min_key<kCompact>(g, u, 0);
  for (; rank > 0 && best < limit; --rank) {
    best = fold.template min_key<kCompact>(g, u, best + 1);
  }
  if (best >= limit) return graph::kInvalidNode;
  const auto best_v = static_cast<graph::NodeId>(best & 0xffffffffu);
  // The winner's header is what the next hop (or the batch pipeline a full
  // rotation later) reads.
  g.prefetch(best_v);
  return best_v;
}

/// Vectorized selection of any rank as a selector: dense graph, two-sided
/// greedy, one kernel per (metric family, link mask, node mask, trust mask),
/// both layouts through the one group body. with_select builds it and hands
/// it on, so select_candidate and the BatchPipeline walks inline the same
/// body. du comes from the kernel's own metric on lane 0: Space::distance is
/// not inlined into AVX-512 code and would cost every select a call. The
/// metric's per-space part is built with the selector, so a walk builds it
/// once. The operator is not always_inline: GCC cannot force an AVX-512
/// function into a default-target body, so the callers inline it through
/// `flatten`.
template <class Metric, bool kCheckLinks, bool kCheckNodes, bool kCheckTrust>
struct Avx512Select {
  const graph::OverlayGraph& g;
  const failure::FailureView& view;
  const std::uint8_t* trusted;  // ReputationTable::trusted_bytes() (kCheckTrust)
  Metric space_metric;

  P2P_AVX512_TARGET
  Avx512Select(const graph::OverlayGraph& graph, const failure::FailureView& v,
               const std::uint8_t* trusted_bytes) noexcept
      : g(graph), view(v), trusted(trusted_bytes), space_metric(graph.space()) {}

  P2P_AVX512_TARGET
  graph::NodeId operator()(graph::NodeId u, metric::Point target,
                           std::size_t rank) const noexcept {
    Metric metric = space_metric;
    metric.aim(target);
    const auto du = static_cast<metric::Distance>(_mm_cvtsi128_si64(
        _mm512_castsi512_si128(metric.distance(_mm512_set1_epi64(u)))));
    const Fold16<kCheckLinks, kCheckNodes, kCheckTrust, Metric> fold{
        metric, view, kCheckNodes ? view.node_dead_words() : nullptr,
        kCheckTrust ? trusted : nullptr};
    return g.compact() ? avx512_select_ranked<true>(g, fold, u, du, rank)
                       : avx512_select_ranked<false>(g, fold, u, du, rank);
  }
};

/// decode_links_simd's vector leg: the select's decode step, each group
/// stored.
P2P_AVX512_TARGET
void avx512_decode_links(const graph::OverlayGraph& g, graph::NodeId u,
                         graph::NodeId* out) noexcept {
  const graph::OverlayGraph::CompactHeader& ch = g.cheader(u);
  [[maybe_unused]] const graph::OverlayGraph::SelectExtent extent = g.select_extent(u);
  const std::uint16_t* slots = g.enc_stream(ch);
  const std::uint16_t* exc = g.enc_exceptions(ch);
  const __m512i vu = _mm512_set1_epi32(static_cast<int>(u));
  for (std::uint32_t i = 0; i < ch.degree; i += 16) {
    const __mmask16 m = first_lanes(ch.degree - i);
    _mm512_mask_storeu_epi32(out + i, m, avx512_decode16(slots + i, m, exc, vu, extent));
  }
}

/// One kernel variant handed to `f` as its selector. `flatten` inlines f
/// into this one AVX-512 function, and through f the kernel: a
/// select_candidate call runs the kernel with no further call, and a
/// BatchPipeline walk inlines its tick loop, the session's step and the
/// kernel, so a hop makes no call. What stays out of line is cold (the
/// refill's node_nearest, a reroute's random_alive, telemetry and trace
/// capture).
template <class Metric, bool kCheckLinks, bool kCheckNodes, bool kCheckTrust, class F>
__attribute__((target(P2P_AVX512_ISA), flatten))
auto with_avx512_select(const Router& r, const std::uint8_t* trusted, F& f) {
  return f(Avx512Select<Metric, kCheckLinks, kCheckNodes, kCheckTrust>{r.graph(), r.view(),
                                                                       trusted});
}

/// One entry per (link mask, node mask, trust mask), indexed by
/// SelectMasks::simd_index(), so the intact case keeps its zero-overhead
/// kernel and every failure-aware shape pays only the masks it needs.
template <class Metric, class F, std::size_t... Is>
constexpr auto make_avx512_table(std::index_sequence<Is...>) {
  return std::array{
      with_avx512_select<Metric, (Is & 4) != 0, (Is & 2) != 0, (Is & 1) != 0, F>...};
}
#pragma GCC diagnostic pop
#else
#define P2P_HAVE_AVX512_SELECT 0
#endif

/// The one place a select kernel is chosen: calls f with the selector that
/// this router, the view and the reputation table pick now. On an AVX-512
/// router that is the kernel of the metric family and the link/node/trust
/// masks in force: dead links fold into the lane mask via the view's
/// liveness words, dead targets via a gather of its node-dead words, and
/// distrusted targets via a byte gather on the reputation sideband. Every
/// other router gets its scalar table entry. The selector is valid while
/// nothing mutates the view or the reputation table.
template <class F>
auto with_select(const Router& r, F&& f) {
  const SelectMasks masks = select_masks(r);
#if P2P_HAVE_AVX512_SELECT
  if (r.simd_eligible()) {
    static constexpr auto kLine =
        make_avx512_table<LineMetric, F>(std::make_index_sequence<8>{});
    static constexpr auto kTorus =
        make_avx512_table<TorusMetric, F>(std::make_index_sequence<8>{});
    const auto& table = r.graph().space().one_dimensional() ? kLine : kTorus;
    return table[masks.simd_index()](r, masks.trusted, f);
  }
#endif
  return f(ScalarSelect{scalar_select_fn(r, masks), r.graph(), r.view(), masks.trusted});
}

}  // namespace

bool decode_links_simd(const graph::OverlayGraph& g, graph::NodeId u,
                       graph::NodeId* out) noexcept {
#if P2P_HAVE_AVX512_SELECT
  if (simd_decode_supported()) {
    avx512_decode_links(g, u, out);
    return true;
  }
#endif
  g.decode_links(u, out);
  return false;
}

graph::NodeId Router::select_candidate(graph::NodeId u, metric::Point target,
                                       std::size_t rank) const noexcept {
  return with_select(*this, [&](const auto& select) { return select(u, target, rank); });
}

std::vector<graph::NodeId> Router::candidates(graph::NodeId u,
                                              metric::Point target) const {
  const metric::Space& space = graph_->space();
  util::require_in_range(u < graph_->size(), "Router::candidates: u out of range");
  util::require(space.contains(target), "Router::candidates: target outside space");
  const metric::Point up = graph_->position(u);
  const metric::Distance du = space.distance(up, target);
  const auto neigh = graph_->neighbors(u);
  const failure::ReputationTable* rep = config_.reputation;
  const bool check_trust = rep != nullptr && rep->distrusted_count() != 0;

  std::vector<std::pair<metric::Distance, graph::NodeId>> ranked;
  ranked.reserve(neigh.size());
  // Iterate rather than index: on the compact layout operator[] is O(1) on
  // an unescaped slot but counts the escapes before an escaped one, while
  // the iterator's exception cursor decodes every slot in O(1).
  std::size_t i = 0;
  for (const graph::NodeId v : neigh) {
    const std::size_t link_index = i++;
    if (v == u) continue;
    if (check_trust && !rep->trusted(v)) continue;
    if (config_.knowledge == Knowledge::kLiveness) {
      // hop_usable(u, i) inlined against the already-decoded v (the member
      // helper would re-index neighbors(u)).
      if (!view_->link_alive(u, link_index) || !view_->node_alive(v)) continue;
    } else {
      // Stale mode: a failed link transmits nothing, so the sender can rule
      // it out, but the far node's aliveness is discovered only after
      // committing to the choice.
      if (!view_->link_alive(u, link_index)) continue;
    }
    const metric::Point vp = graph_->position(v);
    const metric::Distance dv = space.distance(vp, target);
    if (dv >= du) continue;  // greedy: strictly closer only
    if (config_.sidedness == Sidedness::kOneSided &&
        !space.between(vp, up, target)) {
      continue;  // would overshoot the target
    }
    ranked.emplace_back(dv, v);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<graph::NodeId> result;
  result.reserve(ranked.size());
  for (const auto& [d, v] : ranked) {
    if (result.empty() || result.back() != v) result.push_back(v);  // drop dup links
  }
  return result;
}

RouteResult Router::route(graph::NodeId src, metric::Point target,
                          util::Rng& rng) const {
  RouteSession session(*this, src, target);
  while (session.step(rng)) {
  }
  return session.result();
}

void Router::route_batch(std::span<const Query> queries,
                         std::span<RouteResult> results, util::Rng& rng,
                         const BatchConfig& batch) const {
  BatchPipeline pipeline(*this, queries, results, rng(), batch);
  pipeline.run();
}

RouteSession::RouteSession(const Router& router, graph::NodeId src,
                           metric::Point target)
    : router_(&router),
      trail_(router.config().stuck_policy == StuckPolicy::kBacktrack
                 ? Trail(std::min({router.config().backtrack_window,
                                   router.effective_ttl(), router.graph().size()}))
                 : Trail()) {
  restart(src, target);
}

void RouteSession::restart(graph::NodeId src, metric::Point target) {
  const graph::OverlayGraph& g = router_->graph();
  util::require_in_range(src < g.size(), "RouteSession: src out of range");
  util::require(g.space().contains(target), "RouteSession: target outside space");
  current_ = src;
  target_node_ = g.node_nearest(target);
  final_goal_ = g.position(target_node_);
  interim_.reset();
  interim_node_ = graph::kInvalidNode;
  trail_.clear();
  cursor_ = 0;
  budget_ = router_->effective_ttl();
  state_ = State::kInTransit;
  result_.status = RouteResult::Status::kStuck;
  result_.hops = 0;
  result_.backtracks = 0;
  result_.reroutes = 0;
  result_.completion_epoch = 0;
  result_.path.clear();
  if (router_->config().record_path) result_.path.push_back(current_);
}

static_assert(telemetry::TraceBuffer::kNone == ~std::uint32_t{0},
              "WalkPipeline::kNoTrail must mirror TraceBuffer::kNone");

template <class Session>
WalkPipeline<Session>::WalkPipeline(const RouterType& router,
                                    std::span<const Query> queries,
                                    std::span<Result> results,
                                    std::uint64_t seed_base,
                                    const BatchConfig& config)
    : router_(&router),
      queries_(queries),
      results_(results),
      seed_base_(seed_base),
      prefetch_distance_(config.prefetch_distance) {
  util::require(results.size() >= queries.size(),
                "WalkPipeline: results span shorter than queries");
  if constexpr (!kHopCapture) {
    util::require(config.telemetry == nullptr && config.trace == nullptr,
                  "WalkPipeline: hop telemetry and traces need RouteSessions");
  } else if constexpr (telemetry::kCompiledIn) {
    telemetry_ = config.telemetry;
    trace_ = config.trace;
  }
  const std::size_t width = config.width < 1 ? 1 : config.width;
  const std::size_t lanes = width < queries.size() ? width : queries.size();
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(Lane{Session(router, queries[i].src, queries[i].target),
                          util::substream(seed_base, i), i});
    if (trace_ != nullptr)
      lanes_.back().trail = trace_->begin(i, queries[i].src);
    // Start pulling the lane's first header now; its first step is >= one
    // full rotation away.
    router.graph().prefetch(lanes_.back().session.current());
  }
  next_query_ = lanes;
}

template <class Session>
std::size_t WalkPipeline<Session>::advance(std::size_t n, bool& live) {
  if constexpr (kHopCapture) {
    // Nothing mutates the view within one advance, so the kernel variant
    // select_candidate would re-derive on every hop is fixed here, once.
    if (router_->simd_eligible()) ++simd_advances_;
    return with_select(*router_, [&](const auto& select) { return walk(n, live, select); });
  } else {
    return walk(n, live, nullptr);  // secure sessions select on their own
  }
}

template class WalkPipeline<RouteSession>;
template class WalkPipeline<SecureRouteSession>;

}  // namespace p2p::core
