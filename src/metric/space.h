// The metric the overlay is embedded in: the paper's one-dimensional spaces
// — the line (§4.3) and the ring Chord-style systems use (§3) — and the
// Kleinberg 2-D torus (§2, [5]) under wrapped Manhattan distance.
//
// The CSR graph, the routers, the failure/churn machinery and the batch
// pipeline are all generic over this type: they only ever ask for
// size/contains/distance/diameter, which every kind answers. The 1-D-only
// notions — direction(), between() (the §4.2.1 one-sided "never past the
// target" test) and signed offset() — are flagged as such: they throw on a
// 2-D space, so one-sided routing stays confined to the line and the ring
// where the paper defines it (Router rejects the combination at
// construction). Symmetrically, the lattice helpers side(), coords(), at()
// and ring_size() throw on a 1-D space.
//
// Space is a small tagged value type (kind + size + torus side), not a
// virtual interface: the routing hot path calls distance() once per
// considered neighbour, and a predictable branch on the kind tag costs
// nothing next to the dependent cache miss it sits behind, whereas a vtable
// dispatch could not be inlined. Adding a metric means adding a Kind, the
// distance branch, and a factory — every consumer above this layer picks it
// up unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace p2p::metric {

/// A grid position in a metric space. Positions are non-negative; the signed
/// type keeps offset arithmetic (position - delta) natural, matching the
/// paper's notation x - Δi.
using Point = std::int64_t;

/// A distance between two grid positions.
using Distance = std::uint64_t;

/// A metric space over grid points 0..size()-1 — line, ring, or 2-D torus
/// (flattened row-major: p = row * side + col). Cheap value type; all queries
/// O(1) and noexcept unless documented otherwise.
class Space {
 public:
  enum class Kind : std::uint8_t { kLine, kRing, kTorus };

  /// A line segment of n grid points: distance |a-b|.
  /// Throws std::invalid_argument unless 1 <= n <= INT64_MAX (every position
  /// must fit a Point).
  [[nodiscard]] static Space line(std::uint64_t n);

  /// A ring (circle) of n grid points: distance min(|a-b|, n-|a-b|).
  /// Throws as line().
  [[nodiscard]] static Space ring(std::uint64_t n);

  /// A side × side torus under Manhattan distance with wraparound.
  /// Throws std::invalid_argument unless 1 <= side and side² <= INT64_MAX.
  [[nodiscard]] static Space torus(std::uint32_t side);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// True for the line and the ring — the spaces where sidedness (direction,
  /// between, signed offsets) is defined.
  [[nodiscard]] bool one_dimensional() const noexcept {
    return kind_ != Kind::kTorus;
  }

  /// Number of grid points.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// True when p is a valid grid position of this space.
  [[nodiscard]] bool contains(Point p) const noexcept {
    return p >= 0 && static_cast<std::uint64_t>(p) < size_;
  }

  /// Metric distance between two grid positions (|a-b| on the line, shorter
  /// arc on the ring, wrapped Manhattan on the torus).
  /// Preconditions: contains(a) && contains(b).
  [[nodiscard]] Distance distance(Point a, Point b) const noexcept {
    if (kind_ != Kind::kTorus) {
      const auto direct = static_cast<std::uint64_t>(a > b ? a - b : b - a);
      if (kind_ == Kind::kLine) return direct;
      return direct <= size_ - direct ? direct : size_ - direct;
    }
    const auto side = static_cast<std::uint64_t>(side_);
    const auto av = static_cast<std::uint64_t>(a);
    const auto bv = static_cast<std::uint64_t>(b);
    const std::uint64_t ar = row_of(av);
    const std::uint64_t br = row_of(bv);
    const std::uint64_t dr = wrapped_axis(ar, br, side);
    const std::uint64_t dc = wrapped_axis(av - ar * side, bv - br * side, side);
    return dr + dc;
  }

  /// Largest distance between any two positions.
  [[nodiscard]] Distance diameter() const noexcept {
    switch (kind_) {
      case Kind::kLine:
        return size_ - 1;
      case Kind::kRing:
        return size_ / 2;
      case Kind::kTorus:
        return 2 * (static_cast<Distance>(side_) / 2);
    }
    return 0;  // unreachable
  }

  /// Largest possible distance from position x to any other position.
  [[nodiscard]] Distance max_distance(Point x) const noexcept;

  // -- 1-D-only operations ---------------------------------------------------
  //
  // These encode an ordering of the space (which side of the target a
  // position lies on) that a 2-D metric does not have. They throw
  // std::invalid_argument on a torus; between() additionally admits nothing,
  // so a one-sided scan that slipped past the Router's construction-time
  // check fails closed instead of misrouting.

  /// The position reached from x by the signed offset `delta` (wraps modulo
  /// size() on the ring, nullopt off the ends of the line). Precondition:
  /// contains(x). Throws on a 2-D space.
  [[nodiscard]] std::optional<Point> offset(Point x, std::int64_t delta) const {
    if (kind_ == Kind::kTorus) [[unlikely]] throw_offset_on_torus();
    // Bounds are compared before adding: x + delta need not fit a Point.
    if (kind_ == Kind::kLine) {
      if (delta < -x || delta > static_cast<std::int64_t>(size_ - 1) - x) return std::nullopt;
      return x + delta;
    }
    // A step shorter than the ring, the common case, wraps without dividing,
    // and by masks: its sign is a coin flip on the samplers' draws.
    const auto n = static_cast<std::int64_t>(size_);
    if (delta <= -n || delta >= n) [[unlikely]] delta = floor_mod(delta, n);
    const std::int64_t step = delta + (n & (delta >> 63));  // in [0, n)
    const auto y = static_cast<std::uint64_t>(x) + static_cast<std::uint64_t>(step);
    return static_cast<Point>(y - (size_ & (0 - static_cast<std::uint64_t>(y >= size_))));
  }

  /// Signed step (+1/-1) toward `to` along a shortest path; 0 when equal.
  /// Ring ties (antipodal points) resolve to +1. Throws on a 2-D space.
  [[nodiscard]] int direction(Point from, Point to) const;

  /// §4.2.1 one-sided admissibility: v lies on a shortest path from u to t
  /// without passing t ("never traverses a link that would take it past its
  /// target"). Hot-path noexcept; on a 2-D space admits nothing (and asserts
  /// in debug builds — callers must gate on one_dimensional()).
  [[nodiscard]] bool between(Point v, Point u, Point t) const noexcept;

  // -- Torus-only operations -------------------------------------------------
  //
  // The lattice structure of the torus, which a 1-D space does not have.
  // Each throws std::invalid_argument on a line or a ring. The check is one
  // predictable branch, so the inline ones cost nothing on the build loops.

  /// Side length of the torus.
  [[nodiscard]] std::uint32_t side() const {
    require_torus("Space::side");
    return side_;
  }

  /// (row, col) of a flattened position. Precondition: contains(p).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> coords(Point p) const {
    require_torus("Space::coords");
    const auto v = static_cast<std::uint64_t>(p);
    const std::uint64_t row = row_of(v);
    return {static_cast<std::uint32_t>(row), static_cast<std::uint32_t>(v - row * side_)};
  }

  /// Flattened position of (row, col); coordinates are taken modulo side.
  [[nodiscard]] Point at(std::int64_t row, std::int64_t col) const {
    require_torus("Space::at");
    const auto s = static_cast<std::int64_t>(side_);
    return floor_mod(row, s) * s + floor_mod(col, s);
  }

  /// Number of offsets within one period of an axis whose wrapped distance
  /// is x: 1 for the origin and for the lone antipode of an even side, 2 for
  /// a ± pair, 0 past side/2.
  [[nodiscard]] std::uint64_t axis_count(Distance x) const {
    require_torus("Space::axis_count");
    const std::uint64_t half = side_ / 2;
    if (x == 0) return 1;
    if (x < half || (x == half && side_ % 2 == 1)) return 2;
    return x == half ? 1 : 0;
  }

  /// Number of grid points at exactly distance d from any point (1 at d = 0):
  /// the sum over row parts rd of axis_count(rd) * axis_count(d - rd).
  ///
  /// On a torus this count is position independent, which lets the Kleinberg
  /// link sampler draw a radius first and then a point uniformly at that
  /// radius. O(1) per call.
  [[nodiscard]] std::uint64_t ring_size(Distance d) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Space&, const Space&) = default;

 private:
  Space(Kind kind, std::uint64_t size, std::uint32_t side) noexcept;

  void require_torus(const char* what) const {
    if (kind_ != Kind::kTorus) [[unlikely]] throw_not_torus(what);
  }
  [[noreturn]] static void throw_not_torus(const char* what);
  [[noreturn]] static void throw_offset_on_torus();

  /// v modulo m in [0, m). Precondition: m > 0.
  [[nodiscard]] static std::int64_t floor_mod(std::int64_t v, std::int64_t m) noexcept {
    const std::int64_t r = v % m;
    return r < 0 ? r + m : r;
  }

  /// Row of a flattened torus position (exact v / side, by reciprocal
  /// multiplication when the side admits it — see the constructor).
  [[nodiscard]] std::uint64_t row_of(std::uint64_t v) const noexcept {
#ifdef __SIZEOF_INT128__
    if (side_magic_ != 0) {
      __extension__ using uint128 = unsigned __int128;
      return static_cast<std::uint64_t>(
          (static_cast<uint128>(v) * side_magic_) >> 64);
    }
#endif
    return v / side_;
  }

  [[nodiscard]] static std::uint64_t wrapped_axis(std::uint64_t x, std::uint64_t y,
                                                  std::uint64_t side) noexcept {
    const std::uint64_t direct = x > y ? x - y : y - x;
    return direct <= side - direct ? direct : side - direct;
  }

  Kind kind_;
  std::uint64_t size_;
  std::uint32_t side_ = 0;        // torus only
  std::uint64_t side_magic_ = 0;  // torus only: ceil(2^64 / side), 0 = divide
};

}  // namespace p2p::metric
