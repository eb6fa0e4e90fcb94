#include "metric/space.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/require.h"

namespace p2p::metric {

namespace {

constexpr auto kMaxPoints = static_cast<std::uint64_t>(std::numeric_limits<Point>::max());

}  // namespace

Space::Space(Kind kind, std::uint64_t size, std::uint32_t side) noexcept
    : kind_(kind), size_(size), side_(side) {
#ifdef __SIZEOF_INT128__
  // Lemire's exact division-by-multiplication: for 2 <= side <= 2^16 every
  // flattened position is < side^2 <= 2^32, so mulhi(p, ceil(2^64/side))
  // equals p / side exactly — turning the two per-distance row/column
  // splits from ~25-cycle divides into 3-cycle multiplies. The routing
  // inner loop calls distance() once per considered neighbour; with plain
  // divides the torus hop is compute-bound and the batch pipeline has no
  // memory latency left to hide.
  if (side_ >= 2 && side_ <= 0x10000u) {
    side_magic_ = ~std::uint64_t{0} / side_ + 1;
  }
#endif
}

Space Space::line(std::uint64_t n) {
  util::require(n >= 1, "Space::line: need at least one grid point");
  util::require(n <= kMaxPoints, "Space::line: more grid points than a Point can name");
  return {Kind::kLine, n, 0};
}

Space Space::ring(std::uint64_t n) {
  util::require(n >= 1, "Space::ring: need at least one grid point");
  util::require(n <= kMaxPoints, "Space::ring: more grid points than a Point can name");
  return {Kind::kRing, n, 0};
}

Space Space::torus(std::uint32_t side) {
  util::require(side >= 1, "Space::torus: side must be >= 1");
  const std::uint64_t size = static_cast<std::uint64_t>(side) * side;
  util::require(size <= kMaxPoints, "Space::torus: more grid points than a Point can name");
  return {Kind::kTorus, size, side};
}

Distance Space::max_distance(Point x) const noexcept {
  // Ring and torus points all see the same distance profile (translation
  // invariance), so the farthest point is always a full diameter away.
  if (kind_ != Kind::kLine) return diameter();
  const auto left = static_cast<std::uint64_t>(x);
  return std::max(left, size_ - 1 - left);
}

void Space::throw_offset_on_torus() {
  throw std::invalid_argument(
      "Space::offset: signed offsets are only defined on a one-dimensional metric (line or "
      "ring)");
}

int Space::direction(Point from, Point to) const {
  util::require(one_dimensional(),
                "Space::direction: sidedness is only defined on a "
                "one-dimensional metric (line or ring)");
  if (from == to) return 0;
  if (kind_ == Kind::kLine) return to > from ? 1 : -1;
  const auto n = static_cast<std::int64_t>(size_);
  const std::int64_t forward = floor_mod(to - from, n);
  // forward steps clockwise (+1); n - forward steps counter-clockwise.
  return forward <= n - forward ? 1 : -1;
}

bool Space::between(Point v, Point u, Point t) const noexcept {
  if (kind_ == Kind::kTorus) {
    assert(false && "Space::between: sidedness is undefined on a 2-D metric");
    return false;
  }
  if (u == t) return v == t;
  if (v == t) return true;
  if (kind_ == Kind::kLine) {
    return (t < v && v < u) || (u < v && v < t);
  }
  // Ring: v must lie strictly inside a shortest arc from u to t, counted in
  // steps from u along that arc. With antipodal ties either arc is shortest;
  // we accept membership of whichever arc contains v without overshooting.
  const auto n = static_cast<std::int64_t>(size_);
  const std::int64_t cw_t = floor_mod(t - u, n);  // in (0, n): u != t
  const std::int64_t cw_v = floor_mod(v - u, n);
  const std::int64_t ccw_t = n - cw_t;
  const std::int64_t ccw_v = cw_v == 0 ? 0 : n - cw_v;
  const auto d_ut = static_cast<std::int64_t>(distance(u, t));
  return (cw_t == d_ut && 0 < cw_v && cw_v < cw_t) ||
         (ccw_t == d_ut && 0 < ccw_v && ccw_v < ccw_t);
}

void Space::throw_not_torus(const char* what) {
  throw std::invalid_argument(std::string(what) +
                              ": lattice operations are only defined on a torus");
}

std::uint64_t Space::ring_size(Distance d) const {
  require_torus("Space::ring_size");
  // Row parts with a non-zero weight run over [lo, hi]. Strictly between
  // the ends both rd and d - rd lie in (0, side/2), so each weighs 2 * 2.
  const std::uint64_t half = side_ / 2;
  const std::uint64_t lo = d > half ? d - half : 0;
  const std::uint64_t hi = std::min<std::uint64_t>(d, half);
  if (lo > hi) return 0;
  const std::uint64_t ends = axis_count(lo) * axis_count(d - lo);
  return lo == hi ? ends : ends + 4 * (hi - lo - 1) + axis_count(hi) * axis_count(d - hi);
}

std::string Space::to_string() const {
  switch (kind_) {
    case Kind::kLine:
      return "line(" + std::to_string(size_) + ")";
    case Kind::kRing:
      return "ring(" + std::to_string(size_) + ")";
    case Kind::kTorus:
      return "torus(" + std::to_string(side_) + "x" + std::to_string(side_) + ")";
  }
  return "space(?)";  // unreachable
}

}  // namespace p2p::metric
