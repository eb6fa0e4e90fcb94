#include "graph/compact_freeze.h"

#include <algorithm>
#include <cassert>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/require.h"
#include "util/thread_pool.h"

namespace p2p::graph {

namespace detail {

namespace {

using CompactHeader = OverlayGraph::CompactHeader;

/// Where node u's encoding goes: its slot words in [slots, exceptions), the
/// escaped targets' absolutes and the padding word in [exceptions, end).
struct NodeStream {
  std::uint16_t* slots;
  std::uint16_t* exceptions;
  std::uint16_t* end;
};

/// Node u's links in one run.
inline std::span<const NodeId> run_slice(const LinkRuns::Run& run, std::size_t u) noexcept {
  return {run.targets.data() + run.offsets[u], run.targets.data() + run.offsets[u + 1]};
}

/// Zigzag map: 0,-1,1,-2,... -> 0,1,2,3,...
inline std::uint64_t zigzag64(std::int64_t d) noexcept {
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

/// Number of links u -> v, v in [first, last), whose compact slot escapes.
/// Branch-free, but the library builds without -march, so the compiler
/// vectorizes it with SSE2 at best.
inline std::size_t escaped_links(NodeId u, const NodeId* first, const NodeId* last) noexcept {
  std::size_t escaped = 0;
  for (const NodeId* v = first; v != last; ++v) {
    escaped += static_cast<std::size_t>(
        zigzag64(static_cast<std::int64_t>(*v) - static_cast<std::int64_t>(u)) >= kEscapeWord);
  }
  return escaped;
}

/// Writes the encoding of u -> v: its slot word, and for a far target the
/// absolute (low half first) at exc, which then advances past it.
inline void encode_link(std::uint16_t* slot, std::uint16_t*& exc, NodeId u, NodeId v) noexcept {
  const std::uint64_t zz = zigzag64(static_cast<std::int64_t>(v) - static_cast<std::int64_t>(u));
  if (zz < kEscapeWord) {
    *slot = static_cast<std::uint16_t>(zz);
    return;
  }
  *slot = kEscapeWord;
  *exc++ = static_cast<std::uint16_t>(v & 0xFFFFu);
  *exc++ = static_cast<std::uint16_t>(v >> 16);
}

/// The reference: one link at a time.
struct ScalarSlices {
  static std::size_t escapes(NodeId u, std::span<const NodeId> links) noexcept {
    return escaped_links(u, links.data(), links.data() + links.size());
  }
  /// Writes the slot words of u -> links at `slot` and the escaped targets'
  /// absolutes at `exc`; returns exc past them.
  static std::uint16_t* encode(NodeId u, std::span<const NodeId> links, std::uint16_t* slot,
                               std::uint16_t* exc, const NodeStream& /*node*/) noexcept {
    for (const NodeId v : links) encode_link(slot++, exc, u, v);
    return exc;
  }
};

/// Pass 1 over nodes [lo, hi) (see freeze_compact): every field of ch[u]
/// but `enc`, which holds the node's encoded length in 2-word units.
template <class Slices>
void size_nodes(const LinkRuns& runs, std::size_t lo, std::size_t hi, CompactHeader* ch) {
  for (std::size_t u = lo; u < hi; ++u) {
    std::size_t escapes = 0;
    for (const LinkRuns::Run& run : runs.runs) {
      escapes += Slices::escapes(static_cast<NodeId>(u), run_slice(run, u));
    }
    const std::size_t words = runs.degree(u) + 2 * escapes;
    ch[u] = CompactHeader{runs.slot_base(u), static_cast<std::uint32_t>((words + 1) / 2),
                          runs.degree(u), static_cast<std::uint16_t>(runs.short_degree(u)),
                          static_cast<std::uint16_t>(std::min<std::size_t>(
                              escapes, OverlayGraph::kEscapesSaturated))};
  }
}

/// Pass 2 over nodes [lo, hi); `ch` holds stream starts, ch[hi] included.
template <class Slices>
void encode_nodes(const LinkRuns& runs, std::size_t lo, std::size_t hi, const CompactHeader* ch,
                  std::uint16_t* stream) {
  for (std::size_t u = lo; u < hi; ++u) {
    // Slot words first, the escaped targets' absolutes behind them.
    std::uint16_t* const slots = stream + std::size_t{ch[u].enc} * 2;
    const NodeStream node{slots, slots + ch[u].degree, stream + std::size_t{ch[u + 1].enc} * 2};
    std::uint16_t* slot = slots;
    std::uint16_t* exc = node.exceptions;
    for (const LinkRuns::Run& run : runs.runs) {
      const std::span<const NodeId> links = run_slice(run, u);
      exc = Slices::encode(static_cast<NodeId>(u), links, slot, exc, node);
      slot += links.size();
    }
    if (exc != node.end) *exc = 0;  // even-unit padding word
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define P2P_HAVE_FREEZE_KERNEL 1

bool freeze_kernel_supported() noexcept {
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}

// GCC's _mm512_* expansions seed results from _mm512_undefined_*, which
// -Wmaybe-uninitialized flags at -O3; the intrinsics are correct as written.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#define P2P_FREEZE_ISA "avx512f,avx512bw,avx512vl"
#define P2P_FREEZE_INLINE __attribute__((target(P2P_FREEZE_ISA), always_inline))

/// Debug-build bound of a masked load or store, which ASan does not see:
/// true when the `count` elements from p lie in [begin, end). Only assert()
/// calls it, so NDEBUG builds drop it.
template <class T>
bool within(const T* p, std::size_t count, const T* begin, const T* end) noexcept {
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  return at >= reinterpret_cast<std::uintptr_t>(begin) &&
         at + count * sizeof(T) <= reinterpret_cast<std::uintptr_t>(end);
}

/// The first `left` (>= 1) of sixteen lanes.
P2P_FREEZE_INLINE inline __mmask16 first_lanes(std::size_t left) noexcept {
  return left >= 16 ? static_cast<__mmask16>(0xffff) : static_cast<__mmask16>((1u << left) - 1u);
}

/// Lane i of the result is the zigzag of v_i - u in 32 bits,
/// (d << 1) ^ (d >> 31). With every id below 2^31, |d| < 2^31, so it equals
/// zigzag64's value and escapes (>= kEscapeWord) exactly where it does.
P2P_FREEZE_INLINE inline __m512i zigzag_lanes(__m512i v, __m512i vu) noexcept {
  const __m512i d = _mm512_sub_epi32(v, vu);
  return _mm512_xor_si512(_mm512_slli_epi32(d, 1), _mm512_srai_epi32(d, 31));
}

/// The two passes sixteen links per step: a masked load of the run slice,
/// the zigzag in u32 lanes, the escape mask zz >= kEscapeWord and its
/// popcount. The inverse of the router's avx512_decode16.
struct Avx512Slices {
  __attribute__((target(P2P_FREEZE_ISA))) static std::size_t escapes(
      NodeId u, std::span<const NodeId> links) noexcept {
    const __m512i vu = _mm512_set1_epi32(static_cast<int>(u));
    const __m512i escape = _mm512_set1_epi32(kEscapeWord);
    std::size_t escaped = 0;
    for (std::size_t i = 0; i < links.size(); i += 16) {
      const __mmask16 m = first_lanes(links.size() - i);
      const NodeId* const at = links.data() + i;
      assert(within(at, static_cast<std::size_t>(__builtin_popcount(m)), links.data(),
                    links.data() + links.size()) &&
             "size load: lanes outside the run slice");
      const __m512i zz = zigzag_lanes(_mm512_maskz_loadu_epi32(m, at), vu);
      escaped += static_cast<std::size_t>(
          __builtin_popcount(_mm512_mask_cmpge_epu32_mask(m, zz, escape)));
    }
    return escaped;
  }

  /// The slot words go out through one masked saturating narrow (vpmovusdw):
  /// an escaped lane's zz >= kEscapeWord saturates to kEscapeWord, and every
  /// other lane is below it, so it narrows exactly. The escaped lanes' ids
  /// are compress-stored as u32, which is low half first, as encode_link
  /// writes them.
  __attribute__((target(P2P_FREEZE_ISA))) static std::uint16_t* encode(
      NodeId u, std::span<const NodeId> links, std::uint16_t* slot, std::uint16_t* exc,
      [[maybe_unused]] const NodeStream& node) noexcept {
    const __m512i vu = _mm512_set1_epi32(static_cast<int>(u));
    const __m512i escape = _mm512_set1_epi32(kEscapeWord);
    for (std::size_t i = 0; i < links.size(); i += 16) {
      const __mmask16 m = first_lanes(links.size() - i);
      const NodeId* const at = links.data() + i;
      [[maybe_unused]] const auto lanes = static_cast<std::size_t>(__builtin_popcount(m));
      assert(within(at, lanes, links.data(), links.data() + links.size()) &&
             "encode load: lanes outside the run slice");
      const __m512i v = _mm512_maskz_loadu_epi32(m, at);
      const __m512i zz = zigzag_lanes(v, vu);
      const __mmask16 esc = _mm512_mask_cmpge_epu32_mask(m, zz, escape);
      assert(within(slot + i, lanes, node.slots, node.exceptions) &&
             "slot store: outside the node's slot words");
      _mm512_mask_cvtusepi32_storeu_epi16(slot + i, m, zz);
      const auto escaped = static_cast<std::size_t>(__builtin_popcount(esc));
      assert(within(exc, 2 * escaped, node.exceptions, node.end) &&
             "exception store: outside the node's exception words");
      _mm512_mask_compressstoreu_epi32(exc, esc, v);
      exc += 2 * escaped;
    }
    return exc;
  }
};

// The node loops with the AVX-512 slices inlined: flatten pulls the generic
// loop and both slice bodies into one target function.
__attribute__((target(P2P_FREEZE_ISA), flatten)) void size_nodes_avx512(const LinkRuns& runs,
                                                                         std::size_t lo,
                                                                         std::size_t hi,
                                                                         CompactHeader* ch) {
  size_nodes<Avx512Slices>(runs, lo, hi, ch);
}

__attribute__((target(P2P_FREEZE_ISA), flatten)) void encode_nodes_avx512(
    const LinkRuns& runs, std::size_t lo, std::size_t hi, const CompactHeader* ch,
    std::uint16_t* stream) {
  encode_nodes<Avx512Slices>(runs, lo, hi, ch, stream);
}
#pragma GCC diagnostic pop
#else
#define P2P_HAVE_FREEZE_KERNEL 0
#endif

/// freeze_compact's pass 1 over nodes [lo, hi) with `kernel`'s slices.
void size_pass(FreezeKernel kernel, const LinkRuns& runs, std::size_t lo, std::size_t hi,
               CompactHeader* ch) {
#if P2P_HAVE_FREEZE_KERNEL
  if (kernel == FreezeKernel::kAvx512) {
    size_nodes_avx512(runs, lo, hi, ch);
    return;
  }
#endif
  (void)kernel;
  size_nodes<ScalarSlices>(runs, lo, hi, ch);
}

/// freeze_compact's pass 2 over nodes [lo, hi) with `kernel`'s slices.
void encode_pass(FreezeKernel kernel, const LinkRuns& runs, std::size_t lo, std::size_t hi,
                 const CompactHeader* ch, std::uint16_t* stream) {
#if P2P_HAVE_FREEZE_KERNEL
  if (kernel == FreezeKernel::kAvx512) {
    encode_nodes_avx512(runs, lo, hi, ch, stream);
    return;
  }
#endif
  (void)kernel;
  encode_nodes<ScalarSlices>(runs, lo, hi, ch, stream);
}

}  // namespace

FreezeKernel freeze_kernel([[maybe_unused]] std::size_t n) noexcept {
#if P2P_HAVE_FREEZE_KERNEL
  if (n <= (std::size_t{1} << 31) && freeze_kernel_supported()) return FreezeKernel::kAvx512;
#endif
  return FreezeKernel::kScalar;
}

std::size_t escaped_links(FreezeKernel kernel, NodeId u, std::span<const NodeId> links) noexcept {
#if P2P_HAVE_FREEZE_KERNEL
  if (kernel == FreezeKernel::kAvx512) return Avx512Slices::escapes(u, links);
#endif
  (void)kernel;
  return ScalarSlices::escapes(u, links);
}

std::uint16_t* encode_links(FreezeKernel kernel, NodeId u, std::span<const NodeId> links,
                            std::uint16_t* stream, std::uint16_t* end) noexcept {
  const NodeStream node{stream, stream + links.size(), end};
#if P2P_HAVE_FREEZE_KERNEL
  if (kernel == FreezeKernel::kAvx512) {
    return Avx512Slices::encode(u, links, node.slots, node.exceptions, node);
  }
#endif
  (void)kernel;
  return ScalarSlices::encode(u, links, node.slots, node.exceptions, node);
}

}  // namespace detail

OverlayGraph OverlayGraph::freeze_compact(metric::Space space,
                                          std::vector<metric::Point> positions,
                                          detail::LinkRuns runs,
                                          util::ThreadPool* pool) {
  const std::size_t n = runs.size();
  const std::size_t links = runs.link_count();
  util::require(links <= std::numeric_limits<std::uint32_t>::max(),
                "freeze_compact: slot index overflow");
  OverlayGraph g(space, std::move(positions), CompactTag{});
  g.node_count_ = n;

  // Pass 1: every header but its stream start, whose field first holds the
  // node's encoded length (one slot word per link plus two exception words
  // per escaped link) in whole 2-word units, so the u32 `enc` field
  // addresses streams past 2^32 words. The short degree fits its u16:
  // GraphBuilder::add_short_link refuses a node's 65,536th short link. The
  // escape count saturates instead.
  auto* ch = g.arena_.allocate_array<CompactHeader>(n + 1);
  const detail::FreezeKernel kernel = detail::freeze_kernel(n);
  const auto size_nodes = [&](std::size_t lo, std::size_t hi) {
    detail::size_pass(kernel, runs, lo, hi, ch);
  };
  if (pool != nullptr && n >= 1024) {
    pool->parallel_chunks(n, pool->thread_count() * 4, size_nodes);
  } else {
    size_nodes(0, n);
  }
  // Lengths to stream starts. A start past the u32 range wraps, but the
  // total then is past it too, and the check below throws.
  std::uint64_t units = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t len = ch[u].enc;
    ch[u].enc = static_cast<std::uint32_t>(units);
    units += len;
  }
  util::require(units <= std::numeric_limits<std::uint32_t>::max(),
                "freeze_compact: encoded stream exceeds the addressable range");
  ch[n] = CompactHeader{static_cast<std::uint32_t>(links), static_cast<std::uint32_t>(units),
                        0, 0, 0};
  const std::uint64_t total_words = units * 2;
  auto* stream = g.arena_.allocate_array<std::uint16_t>(static_cast<std::size_t>(total_words));

  // Pass 2: the encoding, streamed block by block so the runs' pages go
  // back as the stream fills in (workers first-touch their span of the
  // arena pages, which matters once shards pin their build pools).
  runs.stream(pool, [&](std::size_t lo, std::size_t hi) {
    detail::encode_pass(kernel, runs, lo, hi, ch, stream);
  });

  g.cheaders_ = ch;
  g.enc_ = stream;
  g.enc_words_ = total_words;
  return g;
}

}  // namespace p2p::graph
