#include "graph/link_distribution.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/require.h"

namespace p2p::graph {

namespace detail {

GuidedSearch::GuidedSearch(std::vector<double> prefix) : table_(std::move(prefix)) {
  const std::size_t m = table_.size() - 1;
  table_.resize(m + 1 + kPad, std::numeric_limits<double>::infinity());
  if (m + 1 > std::numeric_limits<std::uint32_t>::max()) return;  // search unguided
  const std::size_t buckets = std::clamp<std::size_t>(m, 1, kMaxBuckets);
  const double mass = table_[m];
  scale_ = static_cast<double>(buckets) / mass;
  guide_.resize(buckets + 1);
  std::size_t i = 1;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double edge = static_cast<double>(b) * mass / static_cast<double>(buckets);
    while (table_[i] <= edge) ++i;  // stops at the first sentinel at the latest
    guide_[b] = static_cast<std::uint32_t>(i);
  }
  guide_[buckets] = static_cast<std::uint32_t>(m + 1);
}

std::uint64_t torus_row_part(const metric::Space& torus, metric::Distance d, double pick) {
  const std::uint64_t half = torus.side() / 2;
  const std::uint64_t lo = d > half ? d - half : 0;  // the weights before lo are 0
  const std::uint64_t hi = std::min<std::uint64_t>(d, half);
  if (lo >= hi) return hi;
  const double first = static_cast<double>(torus.axis_count(lo) * torus.axis_count(d - lo));
  if (pick < first) return lo;
  // Each interior row part weighs 4; the difference, / 4 and floor are exact.
  const double step = std::floor((pick - first) / 4.0);
  return step < static_cast<double>(hi - lo - 1) ? lo + 1 + static_cast<std::uint64_t>(step)
                                                 : hi;
}

}  // namespace detail

namespace {

/// What sample_targets' ring loop reads, gathered for the ring kernel.
struct RingTables {
  const detail::GuidedSearch* search;  // the scalar fallback
  const double* p;                     // p[0..m], then kPad +inf
  std::uint64_t last;                  // m + kPad, p's last index
  const std::uint32_t* guide;          // buckets + 1 entries
  double scale;                        // buckets / p[m]
  double buckets;
  double ring_total;
  double mass_cw;                      // p[half]
  std::uint64_t half;
  bool even;
  std::uint64_t n;
};

#if defined(__x86_64__) && defined(__GNUC__)
#define P2P_HAVE_RING_KERNEL 1

bool ring_kernel_supported() noexcept {
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}

// GCC's _mm512_* expansions seed results from _mm512_undefined_*, which
// -Wmaybe-uninitialized flags at -O3; the intrinsics are correct as written.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#define P2P_RING_ISA "avx512f,avx512dq,avx512vl"

/// Debug-build bound of a gather or scatter, whose accesses ASan does not
/// see: true when every lane of `index` in `lanes` lies in [0, end). Only
/// assert() calls it, so NDEBUG builds drop it.
__attribute__((target(P2P_RING_ISA), always_inline)) inline bool lanes_within(
    __m512i index, __mmask8 lanes, std::uint64_t end) {
  return (_mm512_mask_cmplt_epi64_mask(lanes, index, _mm512_setzero_si512()) |
          _mm512_mask_cmpge_epi64_mask(lanes, index,
                                       _mm512_set1_epi64(static_cast<long long>(end)))) == 0;
}

/// Adds `step` to the lanes of c in `lanes` whose p[lo + c + at] <= v;
/// `last` is p's last index.
__attribute__((target(P2P_RING_ISA), always_inline)) inline __m512i ring_count_step(
    const double* p, [[maybe_unused]] std::uint64_t last, __m512i c, __mmask8 lanes,
    __m512i lo, __m512d v, long long at, long long step) {
  const __m512i index = _mm512_add_epi64(_mm512_add_epi64(lo, c), _mm512_set1_epi64(at));
  assert(lanes_within(index, lanes, last + 1) && "count gather: index past p's last entry");
  const __m512d q = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), lanes, index, p, 8);
  const __mmask8 le = _mm512_mask_cmp_pd_mask(lanes, q, v, _CMP_LE_OQ);
  return _mm512_mask_add_epi64(c, le, c, _mm512_set1_epi64(step));
}

/// sample_targets' ring loop with lane i drawing for sources[i]. Each step
/// is the scalar one in vector form: an xoshiro256++ step and next_double,
/// the side as a mask, the guide bucket, a count over kPad entries from the
/// bucket's first index lo, the offset's wrap. Every product is a single
/// rounding, as in the scalar loop, and no product feeds an addition, so no
/// fused multiply-add can change a bit.
///
/// The count is trusted where p[lo - 1] <= v < p[lo + kPad]: the table
/// rises, so the unbounded answer then lies in [lo, lo + kPad] and is lo
/// plus the count of p[lo..lo + kPad) <= v. GuidedSearch::upper_bound
/// checks the bucket's bracket instead; this check needs no second guide
/// entry, holds in brackets wider than kPad too, and reads its two entries
/// beside the count's chain, so the count's gathers do not wait for it.
/// Every other lane takes the scalar upper_bound.
///
/// AddressSanitizer does not instrument gathers, so their bounds are
/// argued here. Only lanes inside the guide (0 <= x < buckets) gather from
/// it, at b < buckets. Guide entries are first indices i >= 1 with p[i]
/// above a bucket edge, at most m + 1 (the first sentinel), so lo - 1 >= 0;
/// the count reads p[lo + c + j] with c + j <= 7, at most p[m + kPad], the
/// last sentinel; and p[lo + kPad] is read at min(lo + kPad, m + kPad)
/// (every entry past m is +inf, so the clamp changes no comparison). Debug
/// builds assert each of these bounds, and the scatter's, lane by lane.
__attribute__((target(P2P_RING_ISA))) void ring_block_avx512(
    const RingTables& t, util::Rng* rngs, const metric::Point* sources, std::size_t count,
    NodeId* out) {
  constexpr std::size_t kLanes = PowerLawLinkSampler::kBlockLanes;
  alignas(64) std::uint64_t words[4][kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) {
    const std::array<std::uint64_t, 4> state = rngs[i].state();
    for (std::size_t w = 0; w < 4; ++w) words[w][i] = state[w];
  }
  __m512i s0 = _mm512_load_si512(words[0]);
  __m512i s1 = _mm512_load_si512(words[1]);
  __m512i s2 = _mm512_load_si512(words[2]);
  __m512i s3 = _mm512_load_si512(words[3]);

  const __m512i src = _mm512_loadu_si512(sources);
  const __m512i rows = _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                          _mm512_set1_epi64(static_cast<long long>(count)));
  const __m512d ring_total = _mm512_set1_pd(t.ring_total);
  const __m512d mass_cw = _mm512_set1_pd(t.mass_cw);
  const __m512d scale = _mm512_set1_pd(t.scale);
  const __m512d buckets = _mm512_set1_pd(t.buckets);
  const __m512d zero = _mm512_setzero_pd();
  const __m512i izero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i pad = _mm512_set1_epi64(detail::GuidedSearch::kPad);
  const __m512i last = _mm512_set1_epi64(static_cast<long long>(t.last));
  const __m512i half = _mm512_set1_epi64(static_cast<long long>(t.half));
  const __m512i n = _mm512_set1_epi64(static_cast<long long>(t.n));
  const __m512i invalid = _mm512_set1_epi64(kInvalidNode);
  const __mmask8 even = t.even ? 0xff : 0;

  for (std::size_t k = 0; k < count; ++k) {
    // util::Rng::operator() and next_double().
    const __m512i r = _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
    const __m512i shifted = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, shifted);
    s3 = _mm512_rol_epi64(s3, 45);
    const __m512d unit =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)), _mm512_set1_pd(0x1.0p-53));
    const __m512d u = _mm512_mul_pd(unit, ring_total);

    // The side, the limit and the magnitude's mass, as sample_targets.
    const __mmask8 ccw = _mm512_cmp_pd_mask(u, mass_cw, _CMP_GE_OQ);
    const __m512i limit = _mm512_mask_sub_epi64(half, ccw & even, half, one);
    const __m512d v = _mm512_mask_sub_pd(u, ccw, u, mass_cw);

    // GuidedSearch::upper_bound: the bucket, its first index and the check.
    const __m512d x = _mm512_mul_pd(v, scale);
    const __mmask8 guided =
        _mm512_cmp_pd_mask(x, zero, _CMP_GE_OQ) & _mm512_cmp_pd_mask(x, buckets, _CMP_LT_OQ);
    const __m512i b = _mm512_maskz_cvttpd_epu64(guided, x);
    assert(lanes_within(b, guided, static_cast<std::uint64_t>(t.buckets)) &&
           "guide gather: bucket past the guide");
    const __m512i lo = _mm512_cvtepu32_epi64(
        _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), guided, b, t.guide, 4));
    const __m512i below_at = _mm512_sub_epi64(lo, one);
    assert(lanes_within(below_at, guided, t.last + 1) && "p gather: lo - 1 outside p");
    const __m512d below = _mm512_mask_i64gather_pd(zero, guided, below_at, t.p, 8);
    const __m512i beyond_at = _mm512_min_epu64(_mm512_add_epi64(lo, pad), last);
    assert(lanes_within(beyond_at, guided, t.last + 1) && "p gather: lo + kPad outside p");
    const __m512d beyond = _mm512_mask_i64gather_pd(zero, guided, beyond_at, t.p, 8);
    const __mmask8 ok = _mm512_mask_cmp_pd_mask(guided, below, v, _CMP_LE_OQ) &
                        _mm512_cmp_pd_mask(beyond, v, _CMP_GT_OQ);

    // The count of p[lo..lo + 7] <= v: the entries rise, so it is the
    // first index past v, found in steps of 4, 2 and 1 (0..7), and a last
    // step of 1 for 8. Four gathers where a plain count takes eight.
    __m512i c = izero;
    c = ring_count_step(t.p, t.last, c, guided, lo, v, 3, 4);
    c = ring_count_step(t.p, t.last, c, guided, lo, v, 1, 2);
    c = ring_count_step(t.p, t.last, c, guided, lo, v, 0, 1);
    c = ring_count_step(t.p, t.last, c, guided, lo, v, 0, 1);
    __m512i d = _mm512_min_epu64(_mm512_add_epi64(lo, c), limit);

    const auto fallback = static_cast<unsigned>(static_cast<__mmask8>(~ok));
    if (fallback != 0) {
      alignas(64) double vs[kLanes];
      alignas(64) std::uint64_t limits[kLanes];
      alignas(64) std::uint64_t ds[kLanes];
      _mm512_store_pd(vs, v);
      _mm512_store_si512(limits, limit);
      _mm512_store_si512(ds, d);
      for (unsigned lanes = fallback; lanes != 0; lanes &= lanes - 1) {
        const auto i = static_cast<std::size_t>(__builtin_ctz(lanes));
        ds[i] = std::min<std::uint64_t>(t.search->upper_bound(limits[i], vs[i]), limits[i]);
      }
      d = _mm512_load_si512(ds);
    }

    // metric::Space::offset(source, ccw ? -d : d) on the ring: |d| < n,
    // so one wrap in either direction.
    __m512i y = _mm512_mask_sub_epi64(_mm512_add_epi64(src, d), ccw, src, d);
    y = _mm512_mask_add_epi64(y, _mm512_cmplt_epi64_mask(y, izero), y, n);
    y = _mm512_mask_sub_epi64(y, _mm512_cmpge_epi64_mask(y, n), y, n);
    y = _mm512_mask_mov_epi64(y, _mm512_cmpeq_epi64_mask(y, src), invalid);
    assert(lanes_within(_mm512_add_epi64(rows, _mm512_set1_epi64(static_cast<long long>(k))),
                        0xff, kLanes * count) &&
           "scatter: row past the block");
    _mm512_i64scatter_epi32(out + k, rows, _mm512_cvtepi64_epi32(y), 4);
  }

  _mm512_store_si512(words[0], s0);
  _mm512_store_si512(words[1], s1);
  _mm512_store_si512(words[2], s2);
  _mm512_store_si512(words[3], s3);
  for (std::size_t i = 0; i < kLanes; ++i) {
    rngs[i].set_state({words[0][i], words[1][i], words[2][i], words[3][i]});
  }
}
#pragma GCC diagnostic pop
#else
#define P2P_HAVE_RING_KERNEL 0
#endif

}  // namespace

PowerLawLinkSampler::PowerLawLinkSampler(metric::Space space, double exponent)
    : space_(space), exponent_(exponent) {
  util::require(space_.size() >= 2, "PowerLawLinkSampler: need >= 2 grid points");
  util::require(exponent >= 0.0, "PowerLawLinkSampler: exponent must be >= 0");
  const metric::Distance diam = space_.diameter();
  std::vector<double> prefix(diam + 1);
  prefix[0] = 0.0;
  for (metric::Distance d = 1; d <= diam; ++d) {
    // On the torus each radius is weighted by its point count, so a radius
    // draw followed by a uniform point at that radius is the exact per-point
    // distribution.
    const double points =
        space_.one_dimensional() ? 1.0 : static_cast<double>(space_.ring_size(d));
    prefix[d] = prefix[d - 1] + points * std::pow(static_cast<double>(d), -exponent_);
  }
  if (space_.kind() == metric::Space::Kind::kRing) {
    // Total mass = 2 * prefix[half] minus the double-counted antipode.
    const metric::Distance half = space_.size() / 2;
    const double antipode_w =
        space_.size() % 2 == 0 ? std::pow(static_cast<double>(half), -exponent_) : 0.0;
    ring_total_ = 2.0 * prefix[half] - antipode_w;
  }
  search_ = detail::GuidedSearch(std::move(prefix));
}

metric::Point PowerLawLinkSampler::sample_line_target(util::Rng& rng,
                                                      metric::Point source) const {
  const auto left = static_cast<metric::Distance>(source);
  const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
  const double mass_left = search_[left];
  const double mass_right = search_[right];
  const bool go_left = rng.next_double() * (mass_left + mass_right) < mass_left;
  // Inverse CDF over weights w(d) = d^-r for d in [1, limit].
  const metric::Distance limit = go_left ? left : right;
  const double u = rng.next_double() * search_[limit];
  const metric::Distance d = std::min(search_.upper_bound(limit, u), limit);
  return go_left ? source - static_cast<metric::Point>(d)
                 : source + static_cast<metric::Point>(d);
}

metric::Point PowerLawLinkSampler::sample_torus_target(util::Rng& rng,
                                                       metric::Point source) const {
  // Draw the radius first (P ∝ ring_size(d) * d^-r), then a uniform point at
  // that radius.
  const std::size_t diam = search_.last();
  const double u = rng.next_double() * search_[diam];
  const metric::Distance d = std::min(search_.upper_bound(diam, u), diam);

  // Choose the row component rd of the Manhattan distance with weight
  // axis_count(rd) * axis_count(d - rd); the weights sum to ring_size(d).
  const double pick = rng.next_double() * static_cast<double>(space_.ring_size(d));
  const std::uint64_t rd = detail::torus_row_part(space_, d, pick);
  const std::uint64_t cd = d - rd;
  const auto signed_offset = [&](std::uint64_t dist) -> std::int64_t {
    if (space_.axis_count(dist) == 1) {
      return dist == 0 ? 0 : static_cast<std::int64_t>(dist);
    }
    return rng.next_bool(0.5) ? static_cast<std::int64_t>(dist)
                              : -static_cast<std::int64_t>(dist);
  };
  const auto [row, col] = space_.coords(source);
  return space_.at(static_cast<std::int64_t>(row) + signed_offset(rd),
                   static_cast<std::int64_t>(col) + signed_offset(cd));
}

metric::Point PowerLawLinkSampler::sample_target(util::Rng& rng,
                                                 metric::Point source) const {
  metric::Point target = 0;
  sample_targets(rng, source, &target, 1);
  return target;
}

void PowerLawLinkSampler::sample_targets(util::Rng& rng, metric::Point source,
                                         metric::Point* out, std::size_t count) const {
  util::require(space_.contains(source), "PowerLawLinkSampler: source outside space");
  // One loop per kind, so the kind is tested once per node, not per draw.
  switch (space_.kind()) {
    case metric::Space::Kind::kRing: {
      // Every magnitude 1..floor(n/2) exists on both sides, except that for
      // even n the antipodal magnitude n/2 names a single node. Sampling by
      // magnitude with doubled weights and halving the antipodal weight
      // keeps the per-node distribution exact.
      const metric::Distance half = space_.size() / 2;
      const metric::Distance even = space_.size() % 2 == 0 ? 1 : 0;
      const double mass_cw = search_[half];
      for (std::size_t k = 0; k < count; ++k) {
        const double u = rng.next_double() * ring_total_;
        // The clockwise side carries full weight for each magnitude; the
        // counter-clockwise side excludes the antipode when n is even. The
        // side is a fair coin, which a branch would mispredict half the
        // time, so it enters as 0 or 1: u - mass_cw * 0 is u exactly.
        const auto ccw = static_cast<metric::Distance>(u >= mass_cw);
        const metric::Distance limit = half - (ccw & even);
        const double v = u - mass_cw * static_cast<double>(ccw);
        const auto d = static_cast<std::int64_t>(std::min(search_.upper_bound(limit, v), limit));
        out[k] = *space_.offset(source, d - 2 * d * static_cast<std::int64_t>(ccw));
      }
      return;
    }
    case metric::Space::Kind::kLine:
      for (std::size_t k = 0; k < count; ++k) out[k] = sample_line_target(rng, source);
      return;
    case metric::Space::Kind::kTorus:
      for (std::size_t k = 0; k < count; ++k) out[k] = sample_torus_target(rng, source);
      return;
  }
}

bool PowerLawLinkSampler::sample_ring_block(util::Rng* rngs, const metric::Point* sources,
                                            std::size_t count, NodeId* out) const {
  for (std::size_t i = 0; i < kBlockLanes; ++i) {
    util::require(space_.contains(sources[i]), "PowerLawLinkSampler: source outside space");
  }
#if P2P_HAVE_RING_KERNEL
  if (space_.kind() != metric::Space::Kind::kRing || space_.size() > kInvalidNode ||
      search_.buckets() == 0 || !ring_kernel_supported()) {
    return false;
  }
  const metric::Distance half = space_.size() / 2;
  const RingTables tables{&search_,
                          search_.table_.data(),
                          search_.table_.size() - 1,
                          search_.guide_.data(),
                          search_.scale_,
                          static_cast<double>(search_.buckets()),
                          ring_total_,
                          search_[half],
                          half,
                          space_.size() % 2 == 0,
                          space_.size()};
  ring_block_avx512(tables, rngs, sources, count, out);
  return true;
#else
  (void)rngs;
  (void)count;
  (void)out;
  return false;
#endif
}

double PowerLawLinkSampler::probability(metric::Point source, metric::Point target) const {
  util::require(space_.contains(source) && space_.contains(target),
                "probability: point outside space");
  if (source == target) return 0.0;
  const double w = std::pow(static_cast<double>(space_.distance(source, target)),
                            -exponent_);
  if (space_.kind() == metric::Space::Kind::kTorus) {
    // The last prefix is sum_d ring_size(d) d^-r — the per-point normalizer,
    // identical for every source by translation invariance.
    return w / search_[search_.last()];
  }
  if (space_.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<metric::Distance>(source);
    const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
    return w / (search_[left] + search_[right]);
  }
  return w / ring_total_;
}

std::vector<std::uint64_t> base_b_full_offsets(std::uint64_t n, unsigned base) {
  util::require(base >= 2, "base_b_full_offsets: base must be >= 2");
  util::require(n >= 2, "base_b_full_offsets: n must be >= 2");
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t power = 1; power < n; power *= base) {
    for (std::uint64_t digit = 1; digit < base; ++digit) {
      const std::uint64_t off = digit * power;
      if (off < n) offsets.push_back(off);
    }
    if (power > n / base) break;  // next multiplication would overflow past n
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

std::vector<std::uint64_t> base_b_power_offsets(std::uint64_t n, unsigned base) {
  util::require(base >= 2, "base_b_power_offsets: base must be >= 2");
  util::require(n >= 2, "base_b_power_offsets: n must be >= 2");
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t power = 1; power < n; power *= base) {
    offsets.push_back(power);
    if (power > n / base) break;
  }
  return offsets;
}

}  // namespace p2p::graph
