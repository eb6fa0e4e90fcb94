#include "core/router.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/route_telemetry.h"
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
/// lanes), two-sided greedy, and positions narrow enough for the
/// (distance << 32 | id) key packing. P2P_NO_SIMD=1 (read per Router
/// construction; empty or "0" means off) forces the scalar path so tests
/// can pin both implementations against each other on the same host.
bool simd_disabled_by_env() noexcept {
  const char* value = std::getenv("P2P_NO_SIMD");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

bool simd_select_eligible(const graph::OverlayGraph& g,
                          const RouterConfig& cfg) noexcept {
  // Every metric kind has a vectorized scan of any rank — in intact and
  // failure-masked (dead links / dead targets) variants: the 1-D kernel
  // packs line/ring distances, the torus kernel splits row/col by reciprocal
  // multiplication. size <= 2^32 keeps ids and distances inside the
  // (dist << 32 | id) key packing — and, on the torus, bounds the side by
  // 2^16, the domain where the double-reciprocal coordinate split is exact.
  return simd_decode_supported() && !cfg.force_scalar &&
         !simd_disabled_by_env() && g.dense() &&
         cfg.sidedness == Sidedness::kTwoSided &&
         g.space().size() <= 0xffffffffull;
}

}  // namespace

Router::Router(const graph::OverlayGraph& g, const failure::FailureView& view,
               RouterConfig config)
    : graph_(&g), view_(&view), config_(config) {
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

std::size_t Router::effective_ttl() const noexcept {
  if (config_.ttl != 0) return config_.ttl;
  const double lg = std::ceil(std::log2(static_cast<double>(graph_->size()) + 1.0));
  const auto budget = static_cast<std::size_t>(8.0 * lg * lg);
  return budget < 64 ? 64 : budget;
}

namespace {

/// Scalar core of select_candidate, compiled once per (layout, trust-check,
/// dense, link-check, node-check, sidedness) combination so the common
/// configurations run with no per-neighbour flag tests at all. It serves
/// every router the vectorized kernels cannot (no AVX-512, sparse graph,
/// one-sided, force_scalar / P2P_NO_SIMD) and compact nodes past
/// kSimdDecodeCap. Candidates order by (distance-to-target, node id);
/// duplicate links to the same neighbour collapse. Streaming k-th order
/// statistic: each round takes the minimum pair strictly greater than the
/// previous round's.
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

#if defined(__x86_64__) && defined(__GNUC__)
#define P2P_HAVE_AVX512_SELECT 1
// The scans are AVX-512F; the compact decode's masked u16 load also needs
// BW and VL. simd_decode_supported() checks all three. The kernel pieces are
// forced inline: outlined, they pass the metric and the id segments through
// memory, which costs the standard masked scan ~15 %.
#define P2P_AVX512_ISA "avx512f,avx512bw,avx512vl"
#define P2P_AVX512_TARGET __attribute__((target(P2P_AVX512_ISA)))
#define P2P_AVX512_INLINE __attribute__((target(P2P_AVX512_ISA), always_inline))

// GCC's _mm512_* expansions seed results from _mm512_undefined_epi32, which
// -Wmaybe-uninitialized flags at -O3; the intrinsics are correct as written.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
/// Decodes compact node u's links into out, sixteen slots per step: a
/// masked u16 load widened to u32, the zigzag decode plus u, then one
/// expand-load fills the escaped lanes from the exception array (escaped
/// absolutes in slot order) and a masked store writes the ids. Nothing
/// branches on the data, and no load touches a word past the node's stream.
P2P_AVX512_TARGET
inline void avx512_decode_links(const graph::OverlayGraph& g,
                                const graph::OverlayGraph::CompactHeader& ch,
                                graph::NodeId u, graph::NodeId* out) noexcept {
  const std::uint16_t* slots = g.enc_stream(ch);
  const std::uint16_t* exc = g.enc_exceptions(ch);
  const std::uint32_t degree = ch.degree;
  const __m512i vu = _mm512_set1_epi32(static_cast<int>(u));
  const __m512i vone = _mm512_set1_epi32(1);
  const __m512i vesc = _mm512_set1_epi32(graph::detail::kEscapeWord);
  for (std::uint32_t i = 0; i < degree; i += 16) {
    const std::uint32_t left = degree - i;
    const __mmask16 m = left >= 16 ? static_cast<__mmask16>(0xffff)
                                   : static_cast<__mmask16>((1u << left) - 1u);
    const __m512i w = _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(m, slots + i));
    // Zigzag: (w >> 1) ^ -(w & 1); u + d wraps exactly as the scalar decode.
    const __m512i d = _mm512_xor_si512(
        _mm512_srli_epi32(w, 1),
        _mm512_sub_epi32(_mm512_setzero_si512(), _mm512_and_si512(w, vone)));
    const __mmask16 esc = _mm512_mask_cmpeq_epi32_mask(m, w, vesc);
    const __m512i v =
        _mm512_mask_expandloadu_epi32(_mm512_add_epi32(vu, d), esc, exc);
    exc += 2 * static_cast<unsigned>(__builtin_popcount(esc));
    _mm512_mask_storeu_epi32(out + i, m, v);
  }
}

/// Builds the admissibility mask of one 8-lane group: the remainder mask,
/// narrowed by the link-liveness bits of the scanned slots (kCheckLinks), by
/// a byte gather on the view's node-alive sideband (kCheckNodes), and by a
/// second byte gather on the reputation table's trusted sideband
/// (kCheckTrust). The masked failure-aware scans reuse the intact kernels'
/// key packing — a dead link, dead target or distrusted target simply never
/// contributes to the min-reduction, which is exactly the per-candidate
/// branch the scalar path pays, hoisted into mask arithmetic.
///
/// `live` is the caller's 64-bit liveness window cache: one
/// FailureView::link_live_word fetch covers the next 64 links, and groups
/// advance by 8, so a group's byte never straddles the fetched window.
/// `vid_out` receives the (masked-loaded) widened ids for the group.
template <bool kCheckLinks, bool kCheckNodes, bool kCheckTrust>
P2P_AVX512_INLINE
inline __mmask8 avx512_group_mask(const graph::NodeId* ids, std::uint32_t i,
                                  std::uint32_t count,
                                  const failure::FailureView& view,
                                  std::size_t slot_base,
                                  const std::uint8_t* alive_bytes,
                                  const std::uint8_t* trusted_bytes,
                                  std::uint64_t& live, __m512i& vid_out) noexcept {
  const std::uint32_t left = count - i;
  __mmask8 m = left >= 8 ? static_cast<__mmask8>(0xff)
                         : static_cast<__mmask8>((1u << left) - 1u);
  if constexpr (kCheckLinks) {
    if ((i & 63u) == 0) live = view.link_live_word(slot_base + i);
    m &= static_cast<__mmask8>(live >> (i & 63u));
  }
  // Masked load of up to eight u32 ids (zeroed lanes), widened to u64. Dead
  // links are folded into the load mask: their lanes never touch memory and
  // never reach the min.
  vid_out = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(
      _mm512_maskz_loadu_epi32(static_cast<__mmask16>(m), ids + i)));
  if constexpr (kCheckNodes) {
    // Dead *targets* drop via one byte-granular gather per group instead of
    // a per-candidate bit-test branch: alive_bytes[v] is 0 or 1, so testing
    // bit 0 of the gathered dword is the aliveness predicate.
    const __m256i alive32 = _mm512_mask_i64gather_epi32(
        _mm256_setzero_si256(), m, vid_out, alive_bytes, 1);
    m &= _mm512_test_epi64_mask(_mm512_cvtepu32_epi64(alive32),
                                _mm512_set1_epi64(1));
  }
  if constexpr (kCheckTrust) {
    // Distrusted targets drop the same way — the reputation sideband has the
    // identical byte shape (trusted_bytes[v] is 0 or 1, padded past size()),
    // so distrust rides the kernel as a third mask source. Gathering under
    // the already-narrowed mask skips lanes node-gathering ruled out.
    const __m256i trust32 = _mm512_mask_i64gather_epi32(
        _mm256_setzero_si256(), m, vid_out, trusted_bytes, 1);
    m &= _mm512_test_epi64_mask(_mm512_cvtepu32_epi64(trust32),
                                _mm512_set1_epi64(1));
  }
  return m;
}

/// Line/ring distance of eight ids to the target: |id - t|, wrapped on the
/// ring. simd_ok_ admits dense graphs only, so an id is its position.
struct LineMetric {
  __m512i vt;
  __m512i vn;
  bool ring;

  P2P_AVX512_TARGET
  LineMetric(const metric::Space& space, metric::Point target) noexcept
      : vt(_mm512_set1_epi64(static_cast<long long>(target))),
        vn(_mm512_set1_epi64(static_cast<long long>(space.size()))),
        ring(space.kind() == metric::Space::Kind::kRing) {}

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
/// instead of memory-bound.
struct TorusMetric {
  __m512i vtr;
  __m512i vtc;
  __m512i vside;
  __m512d vinv_side;

  P2P_AVX512_TARGET
  TorusMetric(const metric::Space& space, metric::Point target) noexcept {
    const auto side = static_cast<std::uint64_t>(space.as_torus().side());
    const auto tv = static_cast<std::uint64_t>(target);
    vtr = _mm512_set1_epi64(static_cast<long long>(tv / side));
    vtc = _mm512_set1_epi64(static_cast<long long>(tv % side));
    vside = _mm512_set1_epi64(static_cast<long long>(side));
    vinv_side = _mm512_set1_pd(1.0 / static_cast<double>(side));
  }

  P2P_AVX512_INLINE
  __m512i distance(__m512i vid) const noexcept {
    const __m512i vone = _mm512_set1_epi64(1);
    const __m256i ids32 = _mm512_cvtepi64_epi32(vid);
    // row = floor(id / side): reciprocal multiply, truncate, then fix up.
    const __m256i row32 = _mm512_cvttpd_epu32(
        _mm512_mul_pd(_mm512_cvtepu32_pd(ids32), vinv_side));
    __m512i vrow = _mm512_cvtepu32_epi64(row32);
    __m512i vcol = _mm512_sub_epi64(vid, _mm512_mul_epu32(vrow, vside));
    // Overestimated row: col wrapped negative (appears as > 2^32 - 1).
    const __mmask8 over = _mm512_cmp_epu64_mask(
        vcol, _mm512_set1_epi64(0xffffffffll), _MM_CMPINT_NLE);
    vrow = _mm512_mask_sub_epi64(vrow, over, vrow, vone);
    vcol = _mm512_mask_add_epi64(vcol, over, vcol, vside);
    // Underestimated row: col landed in [side, 2*side).
    const __mmask8 under = _mm512_cmp_epu64_mask(vcol, vside, _MM_CMPINT_NLT);
    vrow = _mm512_mask_add_epi64(vrow, under, vrow, vone);
    vcol = _mm512_mask_sub_epi64(vcol, under, vcol, vside);
    // Wrapped Manhattan distance to the (pre-split) target.
    const __m512i drd = _mm512_abs_epi64(_mm512_sub_epi64(vrow, vtr));
    const __m512i dr = _mm512_min_epu64(drd, _mm512_sub_epi64(vside, drd));
    const __m512i dcd = _mm512_abs_epi64(_mm512_sub_epi64(vcol, vtc));
    const __m512i dc = _mm512_min_epu64(dcd, _mm512_sub_epi64(vside, dcd));
    return _mm512_add_epi64(dr, dc);
  }
};

/// One selection pass over an id segment, eight neighbours at a time. Packs
/// each admissible neighbour into the key
///   key(v) = (distance(v, target) << 32) | v
/// so the lexicographic (distance, id) minimum — ties to the lower id — is a
/// single unsigned 64-bit min-reduction. kFloored passes (rank > 0) admit
/// only keys >= vfloor. Masked-out lanes (remainder, dead link, dead target,
/// distrusted, below the floor) keep the running min unchanged —
/// _mm512_mask_min_epu64 keeps vbest in those lanes. Integer-only AVX-512
/// on the line and ring, so no meaningful license downclocking.
template <bool kFloored, bool kCheckLinks, bool kCheckNodes, bool kCheckTrust,
          class Metric>
P2P_AVX512_INLINE
inline __m512i avx512_scan_ids(__m512i vbest, const graph::NodeId* ids,
                               std::uint32_t count, const Metric& metric,
                               __m512i vfloor, const failure::FailureView& view,
                               std::size_t slot_base,
                               const std::uint8_t* alive_bytes,
                               const std::uint8_t* trusted_bytes) noexcept {
  std::uint64_t live = 0;
  for (std::uint32_t i = 0; i < count; i += 8) {
    __m512i vid;
    __mmask8 m = avx512_group_mask<kCheckLinks, kCheckNodes, kCheckTrust>(
        ids, i, count, view, slot_base, alive_bytes, trusted_bytes, live, vid);
    const __m512i key =
        _mm512_or_epi64(_mm512_slli_epi64(metric.distance(vid), 32), vid);
    if constexpr (kFloored) {
      m = _mm512_mask_cmp_epu64_mask(m, key, vfloor, _MM_CMPINT_NLT);
    }
    vbest = _mm512_mask_min_epu64(vbest, m, vbest, key);
  }
  return vbest;
}

/// A node's ids as the vectorized scan reads them: up to two segments — the
/// standard header's inline prefix plus its spill tail, or a compact node's
/// decoded buffer — each with its flat slot base (the same keying on both
/// layouts).
struct IdSegments {
  const graph::NodeId* ids[2];
  std::uint32_t count[2];
  std::size_t slot_base[2];
};

/// The smallest admissible key >= floor over both segments (all ones when
/// none is).
template <bool kFloored, bool kCheckLinks, bool kCheckNodes, bool kCheckTrust,
          class Metric>
P2P_AVX512_INLINE
inline std::uint64_t avx512_min_key(const IdSegments& seg, const Metric& metric,
                                    std::uint64_t floor,
                                    const failure::FailureView& view,
                                    const std::uint8_t* alive_bytes,
                                    const std::uint8_t* trusted_bytes) noexcept {
  const __m512i vfloor = _mm512_set1_epi64(static_cast<long long>(floor));
  __m512i vbest = _mm512_set1_epi64(-1);
  vbest = avx512_scan_ids<kFloored, kCheckLinks, kCheckNodes, kCheckTrust>(
      vbest, seg.ids[0], seg.count[0], metric, vfloor, view, seg.slot_base[0],
      alive_bytes, trusted_bytes);
  if (seg.count[1] != 0) {
    vbest = avx512_scan_ids<kFloored, kCheckLinks, kCheckNodes, kCheckTrust>(
        vbest, seg.ids[1], seg.count[1], metric, vfloor, view, seg.slot_base[1],
        alive_bytes, trusted_bytes);
  }
  return _mm512_reduce_min_epu64(vbest);
}

/// The rank-th candidate of the node whose ids `seg` holds. Pass r takes the
/// minimum key >= floor and then sets floor = best + 1, so it returns the
/// smallest (distance, id) strictly greater than the previous pass's pick:
/// the scalar rank rule, duplicate links collapsing the same way. The
/// strictly-closer filter needs no per-lane mask: a pick is admissible iff
/// its key is < (du << 32), and a self-link or any not-closer neighbour can
/// never beat that.
template <bool kCheckLinks, bool kCheckNodes, bool kCheckTrust, class Metric>
P2P_AVX512_INLINE
inline graph::NodeId avx512_select_ranked(const graph::OverlayGraph& g,
                                          const failure::FailureView& view,
                                          const std::uint8_t* trusted_bytes,
                                          const IdSegments& seg,
                                          const Metric& metric,
                                          metric::Distance du,
                                          std::size_t rank) noexcept {
  const std::uint8_t* alive_bytes = kCheckNodes ? view.node_alive_bytes() : nullptr;
  const std::uint64_t limit = static_cast<std::uint64_t>(du) << 32;
  std::uint64_t best = avx512_min_key<false, kCheckLinks, kCheckNodes, kCheckTrust>(
      seg, metric, 0, view, alive_bytes, trusted_bytes);
  for (; rank > 0 && best < limit; --rank) {
    best = avx512_min_key<true, kCheckLinks, kCheckNodes, kCheckTrust>(
        seg, metric, best + 1, view, alive_bytes, trusted_bytes);
  }
  if (best >= limit) return graph::kInvalidNode;
  const auto best_v = static_cast<graph::NodeId>(best & 0xffffffffu);
  // The winner's header is what the next hop (or the batch pipeline a full
  // rotation later) reads.
  g.prefetch(best_v);
  return best_v;
}

/// Compact leg: decodes the node's stream into a stack buffer and scans it
/// as one segment. A degree past kSimdDecodeCap hands the node to the scalar
/// kernel.
template <bool kCheckLinks, bool kCheckNodes, bool kCheckTrust, class Metric>
P2P_AVX512_TARGET
graph::NodeId avx512_select_compact(const graph::OverlayGraph& g,
                                    const failure::FailureView& view,
                                    const std::uint8_t* trusted_bytes,
                                    graph::NodeId u, metric::Point target,
                                    const Metric& metric, metric::Distance du,
                                    std::size_t rank) noexcept {
  const graph::OverlayGraph::CompactHeader& ch = g.cheader(u);
  if (ch.degree > kSimdDecodeCap) {
    return select_impl<true, kCheckTrust, true, kCheckLinks, kCheckNodes, false>(
        g, view, trusted_bytes, u, target, rank);
  }
  alignas(64) graph::NodeId buf[kSimdDecodeCap];
  avx512_decode_links(g, ch, u, buf);
  const IdSegments seg{{buf, nullptr}, {ch.degree, 0}, {ch.offset, 0}};
  return avx512_select_ranked<kCheckLinks, kCheckNodes, kCheckTrust>(
      g, view, trusted_bytes, seg, metric, du, rank);
}

/// Vectorized selection of any rank: dense graph, two-sided greedy, one
/// kernel per (metric family, link mask, node mask, trust mask).
template <class Metric, bool kCheckLinks, bool kCheckNodes, bool kCheckTrust>
P2P_AVX512_TARGET
graph::NodeId select_best_avx512(const graph::OverlayGraph& g,
                                 const failure::FailureView& view,
                                 const std::uint8_t* trusted_bytes,
                                 graph::NodeId u, metric::Point target,
                                 std::size_t rank) noexcept {
  constexpr std::size_t kInline = graph::OverlayGraph::kInlineEdges;
  const metric::Space& space = g.space();
  const Metric metric(space, target);
  const metric::Distance du =
      space.distance(static_cast<metric::Point>(u), target);
  if (g.compact()) {
    return avx512_select_compact<kCheckLinks, kCheckNodes, kCheckTrust>(
        g, view, trusted_bytes, u, target, metric, du, rank);
  }
  const graph::OverlayGraph::NodeHeader& h = g.header(u);
  const auto inline_n =
      h.degree < kInline ? h.degree : static_cast<std::uint32_t>(kInline);
  const IdSegments seg{{h.inline_edges, g.tail(h)},
                       {inline_n, h.degree - inline_n},
                       {h.offset, h.offset + kInline}};
  return avx512_select_ranked<kCheckLinks, kCheckNodes, kCheckTrust>(
      g, view, trusted_bytes, seg, metric, du, rank);
}

/// Kernel dispatch: one instantiation per (metric family, link mask, node
/// mask, trust mask) so the intact case keeps its zero-overhead kernel and
/// every failure-aware shape pays only the masks it needs. Index:
/// (links?4:0) | (nodes?2:0) | (trust?1:0).
template <class Metric, std::size_t... Is>
constexpr std::array<SelectFn, 8> make_simd_table(std::index_sequence<Is...>) {
  return {select_best_avx512<Metric, (Is & 4) != 0, (Is & 2) != 0,
                             (Is & 1) != 0>...};
}

constexpr std::array<SelectFn, 8> kSimdSelect1D =
    make_simd_table<LineMetric>(std::make_index_sequence<8>{});
constexpr std::array<SelectFn, 8> kSimdSelectTorus =
    make_simd_table<TorusMetric>(std::make_index_sequence<8>{});
#pragma GCC diagnostic pop
#else
#define P2P_HAVE_AVX512_SELECT 0
#endif

}  // namespace

bool decode_links_simd(const graph::OverlayGraph& g, graph::NodeId u,
                       graph::NodeId* out) noexcept {
#if P2P_HAVE_AVX512_SELECT
  const graph::OverlayGraph::CompactHeader& ch = g.cheader(u);
  if (ch.degree <= kSimdDecodeCap && simd_decode_supported()) {
    avx512_decode_links(g, ch, u, out);
    return true;
  }
#endif
  g.decode_links(u, out);
  return false;
}

graph::NodeId Router::select_candidate(graph::NodeId u, metric::Point target,
                                       std::size_t rank) const noexcept {
  // When nothing has ever failed the liveness bitsets are empty and both
  // knowledge models admit every link; dispatch to a specialization that
  // skips the per-slot queries outright. The distrust mask gates the same
  // way: while the reputation table distrusts nobody (or none is wired) the
  // trust-free kernels dispatch and selection costs exactly what it did
  // before reputation existed.
  const bool check_links = !view_->links_intact();
  const bool check_nodes =
      config_.knowledge == Knowledge::kLiveness && !view_->nodes_intact();
  const failure::ReputationTable* rep = config_.reputation;
  const bool check_trust = rep != nullptr && rep->distrusted_count() != 0;
  const std::uint8_t* trusted = check_trust ? rep->trusted_bytes() : nullptr;
#if P2P_HAVE_AVX512_SELECT
  // The §6/§4 sweeps — intact *and* failure-aware, first picks and
  // backtrack ranks alike — spend nearly all their time in this one call
  // shape; simd_ok_ folds the per-router invariants (dense two-sided graph,
  // narrow positions, CPU support) computed at construction, and the
  // per-call view state picks the masked kernel variant: dead links fold
  // into the lane mask via the view's liveness words, dead targets via a
  // byte gather on its node-alive sideband, and distrusted targets via a
  // second byte gather on the reputation sideband. Each metric family has
  // its own kernel; all share the key packing and the min-reduction.
  if (simd_ok_) {
    const std::size_t masks = (check_links ? 4u : 0u) |
                              (check_nodes ? 2u : 0u) | (check_trust ? 1u : 0u);
    return graph_->space().one_dimensional()
               ? kSimdSelect1D[masks](*graph_, *view_, trusted, u, target, rank)
               : kSimdSelectTorus[masks](*graph_, *view_, trusted, u, target, rank);
  }
#endif
  const bool one_sided = config_.sidedness == Sidedness::kOneSided;
  const std::size_t index =
      (graph_->compact() ? 32u : 0u) | (check_trust ? 16u : 0u) |
      (graph_->dense() ? 8u : 0u) | (check_links ? 4u : 0u) |
      (check_nodes ? 2u : 0u) | (one_sided ? 1u : 0u);
  return kSelectTable[index](*graph_, *view_, trusted, u, target, rank);
}

std::vector<graph::NodeId> Router::candidates(graph::NodeId u,
                                              metric::Point target) const {
  const metric::Space& space = graph_->space();
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
  while (session.step_inline(rng)) {
  }
  return session.progress();
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
                 ? Trail(router.config().backtrack_window)
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

std::optional<graph::NodeId> RouteSession::step(util::Rng& rng) {
  return step_inline(rng);
}

static_assert(telemetry::TraceBuffer::kNone == ~std::uint32_t{0},
              "BatchPipeline::kNoTrail must mirror TraceBuffer::kNone");

BatchPipeline::BatchPipeline(const Router& router, std::span<const Query> queries,
                             std::span<RouteResult> results,
                             std::uint64_t seed_base, const BatchConfig& config)
    : router_(&router),
      queries_(queries),
      results_(results),
      seed_base_(seed_base),
      prefetch_distance_(config.prefetch_distance) {
  util::require(results.size() >= queries.size(),
                "BatchPipeline: results span shorter than queries");
  if constexpr (telemetry::kCompiledIn) {
    telemetry_ = config.telemetry;
    trace_ = config.trace;
  }
  const std::size_t width = config.width < 1 ? 1 : config.width;
  const std::size_t lanes = width < queries.size() ? width : queries.size();
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(Lane{RouteSession(router, queries[i].src, queries[i].target),
                          util::substream(seed_base, i), i});
    if (trace_ != nullptr)
      lanes_.back().trail = trace_->begin(i, queries[i].src);
    // Start pulling the lane's first header now; its first step is >= one
    // full rotation away.
    router.graph().prefetch(lanes_.back().session.current());
  }
  next_query_ = lanes;
}

bool BatchPipeline::tick() {
  if (lanes_.empty()) return false;
  const graph::OverlayGraph& g = router_->graph();
  if (prefetch_distance_ != 0 && prefetch_distance_ < lanes_.size()) {
    // The lane stepped prefetch_distance ticks from now: its header is
    // already resident (the select of its previous step, or the
    // construction/refill prefetch, pulled it a full rotation ago), which
    // lets us chase one level deeper and pull every adjacency line its
    // select will read — the compact slot + exception stream, or a standard
    // node's spill tail — the dependent load a lone search eats serially.
    // Lanes compact on retire, so the lookahead always hits a live search;
    // rings already smaller than the lookahead skip it (lines are warm).
    std::size_t ahead = cursor_ + prefetch_distance_;
    if (ahead >= lanes_.size()) ahead -= lanes_.size();
    g.prefetch_spill(lanes_[ahead].session.current());
  }
  Lane& lane = lanes_[cursor_];
  const std::optional<graph::NodeId> moved = lane.session.step_inline(lane.rng);
  if constexpr (telemetry::kCompiledIn) {
    // Hop capture touches only sampled lanes; untraced batches pay one
    // predicted-not-taken branch here (compiled out under P2P_TELEMETRY=OFF).
    if (trace_ != nullptr && lane.trail != kNoTrail && moved.has_value()) {
      trace_->hop(lane.trail, *moved, lane.session.last_rank(),
                  router_->view().epoch());
    }
  }
  if (lane.session.finished()) {
    results_[lane.query] = lane.session.progress();
    ++retired_;
    if constexpr (telemetry::kCompiledIn) {
      if (telemetry_ != nullptr) telemetry_->record(results_[lane.query]);
      if (trace_ != nullptr && lane.trail != kNoTrail) {
        trace_->end(lane.trail,
                    static_cast<std::uint8_t>(results_[lane.query].status));
      }
    }
    if (next_query_ < queries_.size()) {
      const std::size_t refill = next_query_++;
      lane.session.restart(queries_[refill].src, queries_[refill].target);
      lane.rng = util::substream(seed_base_, refill);
      lane.query = refill;
      if constexpr (telemetry::kCompiledIn) {
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
      return !lanes_.empty();
    }
  }
  if (++cursor_ == lanes_.size()) cursor_ = 0;
  return true;
}

}  // namespace p2p::core
