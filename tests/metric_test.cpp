// Unit + property tests for metric::Space — the line, the ring and the torus
// the overlay stack is generic over.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "metric/space.h"
#include "util/rng.h"

namespace p2p::metric {
namespace {

// -- Line and ring -------------------------------------------------------------

TEST(LineAndRing, LineDistances) {
  const auto line = Space::line(10);
  EXPECT_EQ(line.distance(0, 9), 9u);
  EXPECT_EQ(line.distance(3, 3), 0u);
  EXPECT_EQ(line.distance(7, 2), 5u);
  EXPECT_EQ(line.diameter(), 9u);
}

TEST(LineAndRing, RingDistancesWrap) {
  const auto ring = Space::ring(10);
  EXPECT_EQ(ring.distance(0, 9), 1u);
  EXPECT_EQ(ring.distance(0, 5), 5u);
  EXPECT_EQ(ring.distance(2, 8), 4u);
  EXPECT_EQ(ring.diameter(), 5u);
}

TEST(LineAndRing, Contains) {
  const auto line = Space::line(4);
  EXPECT_TRUE(line.contains(0));
  EXPECT_TRUE(line.contains(3));
  EXPECT_FALSE(line.contains(4));
  EXPECT_FALSE(line.contains(-1));
}

TEST(LineAndRing, MaxDistance) {
  const auto line = Space::line(10);
  EXPECT_EQ(line.max_distance(0), 9u);
  EXPECT_EQ(line.max_distance(9), 9u);
  EXPECT_EQ(line.max_distance(5), 5u);
  const auto ring = Space::ring(10);
  EXPECT_EQ(ring.max_distance(3), 5u);
}

TEST(LineAndRing, OffsetOnLineFallsOffEnds) {
  const auto line = Space::line(5);
  EXPECT_EQ(line.offset(2, 2), Point{4});
  EXPECT_EQ(line.offset(2, -2), Point{0});
  EXPECT_FALSE(line.offset(4, 1).has_value());
  EXPECT_FALSE(line.offset(0, -1).has_value());
}

TEST(LineAndRing, OffsetOnRingWraps) {
  const auto ring = Space::ring(5);
  EXPECT_EQ(ring.offset(4, 1), Point{0});
  EXPECT_EQ(ring.offset(0, -1), Point{4});
  EXPECT_EQ(ring.offset(2, 7), Point{4});   // 2 + 7 = 9 mod 5
  EXPECT_EQ(ring.offset(2, -8), Point{4});  // 2 - 8 = -6 mod 5
}

TEST(LineAndRing, DirectionOnLine) {
  const auto line = Space::line(10);
  EXPECT_EQ(line.direction(2, 7), 1);
  EXPECT_EQ(line.direction(7, 2), -1);
  EXPECT_EQ(line.direction(4, 4), 0);
}

TEST(LineAndRing, DirectionOnRingTakesShortArc) {
  const auto ring = Space::ring(10);
  EXPECT_EQ(ring.direction(0, 3), 1);
  EXPECT_EQ(ring.direction(0, 8), -1);  // 2 steps counter-clockwise
  EXPECT_EQ(ring.direction(0, 5), 1);   // antipodal tie resolves to +1
}

TEST(LineAndRing, BetweenOnLine) {
  const auto line = Space::line(10);
  // v between u=8 and target t=2 (strictly), or v == t.
  EXPECT_TRUE(line.between(5, 8, 2));
  EXPECT_TRUE(line.between(2, 8, 2));
  EXPECT_FALSE(line.between(9, 8, 2));
  EXPECT_FALSE(line.between(1, 8, 2));  // overshoot past the target
  EXPECT_FALSE(line.between(8, 8, 2));  // v == u is not progress
}

TEST(LineAndRing, BetweenOnRingFollowsShortArc) {
  const auto ring = Space::ring(12);
  // From u=1 toward t=10 the short arc goes counter-clockwise via 0, 11.
  EXPECT_TRUE(ring.between(0, 1, 10));
  EXPECT_TRUE(ring.between(11, 1, 10));
  EXPECT_FALSE(ring.between(5, 1, 10));  // on the long arc
  EXPECT_TRUE(ring.between(10, 1, 10));  // landing on t is allowed
}

TEST(LineAndRing, RejectsEmptySpaces) {
  EXPECT_THROW(static_cast<void>(Space::line(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Space::ring(0)), std::invalid_argument);
}

TEST(LineAndRing, SizesAreBoundedByThePointRange) {
  // Every position must fit a Point (int64_t): INT64_MAX points is the
  // largest space, one more is rejected. Factories allocate nothing.
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<Point>::max());
  EXPECT_EQ(Space::line(kMax).size(), kMax);
  EXPECT_EQ(Space::ring(kMax).size(), kMax);
  EXPECT_THROW(static_cast<void>(Space::line(kMax + 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Space::ring(kMax + 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Space::ring((1ull << 63) + 10)), std::invalid_argument);
  // At the largest size the signed 1-D arithmetic still holds.
  const Space ring = Space::ring(kMax);
  EXPECT_EQ(ring.direction(0, 5), 1);
  EXPECT_EQ(ring.offset(5, -10), static_cast<Point>(kMax - 5));
  EXPECT_EQ(ring.offset(static_cast<Point>(kMax - 1), 10), Point{9});
  EXPECT_EQ(ring.offset(0, std::numeric_limits<std::int64_t>::min()),
            static_cast<Point>(kMax - 1));
  EXPECT_EQ(ring.distance(0, static_cast<Point>(kMax - 1)), 1u);
  EXPECT_TRUE(ring.between(3, 0, 5));
  const Space line = Space::line(kMax);
  EXPECT_EQ(line.offset(static_cast<Point>(kMax - 1), 1), std::nullopt);
  EXPECT_EQ(line.offset(static_cast<Point>(kMax - 1), 10), std::nullopt);
  EXPECT_EQ(line.offset(0, std::numeric_limits<std::int64_t>::min()), std::nullopt);
  EXPECT_EQ(line.offset(static_cast<Point>(kMax - 1), -static_cast<std::int64_t>(kMax - 1)),
            Point{0});
  EXPECT_EQ(line.max_distance(0), kMax - 1);
}

// -- Torus ---------------------------------------------------------------------

/// Independent reference: wrapped Manhattan distance with the row/column
/// split done by plain division.
Distance reference_torus_distance(std::uint32_t side, Point a, Point b) {
  const auto s = static_cast<std::uint64_t>(side);
  const auto axis = [s](std::uint64_t x, std::uint64_t y) {
    const std::uint64_t direct = x > y ? x - y : y - x;
    return std::min(direct, s - direct);
  };
  const auto av = static_cast<std::uint64_t>(a);
  const auto bv = static_cast<std::uint64_t>(b);
  return axis(av / s, bv / s) + axis(av % s, bv % s);
}

TEST(Torus, CoordinateRoundTrip) {
  const Space t = Space::torus(8);
  for (Point p = 0; p < 64; ++p) {
    const auto [r, c] = t.coords(p);
    EXPECT_EQ(r, static_cast<std::uint32_t>(p / 8));
    EXPECT_EQ(c, static_cast<std::uint32_t>(p % 8));
    EXPECT_EQ(t.at(r, c), p);
  }
}

TEST(Torus, AtWrapsNegativeAndLarge) {
  const Space t = Space::torus(8);
  EXPECT_EQ(t.at(-1, 0), t.at(7, 0));
  EXPECT_EQ(t.at(0, 9), t.at(0, 1));
  EXPECT_EQ(t.at(16, -8), t.at(0, 0));
}

TEST(Torus, ManhattanDistanceWithWraparound) {
  const Space t = Space::torus(8);
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(0, 1)), 1u);
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(0, 7)), 1u);   // wraps
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(4, 4)), 8u);   // diameter
  EXPECT_EQ(t.distance(t.at(2, 3), t.at(2, 3)), 0u);
  EXPECT_EQ(t.diameter(), 8u);
  EXPECT_EQ(t.max_distance(0), t.diameter());
}

TEST(Torus, RingSizeCountsExactly) {
  // Brute-force cross-check: count points at each distance from the origin.
  for (const std::uint32_t side : {4u, 5u, 8u}) {
    const Space t = Space::torus(side);
    std::vector<std::uint64_t> counts(t.diameter() + 1, 0);
    for (Point p = 0; p < static_cast<Point>(t.size()); ++p) {
      ++counts[t.distance(0, p)];
    }
    for (Distance d = 0; d <= t.diameter(); ++d) {
      EXPECT_EQ(t.ring_size(d), counts[d]) << "side=" << side << " d=" << d;
    }
  }
}

TEST(Torus, AxisCountCountsExactly) {
  // Brute-force cross-check: count column offsets at each wrapped distance.
  for (const std::uint32_t side : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
    const Space t = Space::torus(side);
    std::vector<std::uint64_t> counts(side + 1, 0);
    for (std::uint32_t c = 0; c < side; ++c) ++counts[t.distance(0, t.at(0, c))];
    for (Distance x = 0; x <= side; ++x) {
      EXPECT_EQ(t.axis_count(x), counts[x]) << "side=" << side << " x=" << x;
    }
  }
}

TEST(Torus, RingSizeBeyondDiameterIsZero) {
  const Space t = Space::torus(6);
  EXPECT_EQ(t.ring_size(t.diameter() + 1), 0u);
}

TEST(Torus, RingSizesSumToEveryOtherPoint) {
  // The rings around any point partition the other size()-1 points.
  for (const std::uint32_t side : {2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u}) {
    const Space t = Space::torus(side);
    std::uint64_t total = 0;
    for (Distance d = 1; d <= t.diameter(); ++d) total += t.ring_size(d);
    EXPECT_EQ(total, t.size() - 1) << "side=" << side;
  }
}

TEST(Torus, WraparoundIdentities) {
  const Space t = Space::torus(8);
  const auto s = static_cast<std::int64_t>(t.side());
  util::Rng rng(29);
  for (int trial = 0; trial < 500; ++trial) {
    const auto a = static_cast<Point>(rng.next_below(t.size()));
    const auto b = static_cast<Point>(rng.next_below(t.size()));
    const auto [ar, ac] = t.coords(a);
    const auto [br, bc] = t.coords(b);
    // Coordinates are periodic in the side.
    EXPECT_EQ(t.at(ar + s, ac), a);
    EXPECT_EQ(t.at(ar, ac - s), a);
    // Distance is translation invariant: shifting both points by the same
    // offset (wrapping) never changes it.
    const auto dr = static_cast<std::int64_t>(rng.next_below(t.side()));
    const auto dc = static_cast<std::int64_t>(rng.next_below(t.side()));
    EXPECT_EQ(t.distance(a, b),
              t.distance(t.at(ar + dr, ac + dc), t.at(br + dr, bc + dc)));
    // One full lap along either axis is a no-op.
    EXPECT_EQ(t.distance(a, t.at(ar + s, ac)), 0u);
  }
}

TEST(Torus, RejectsZeroSide) {
  EXPECT_THROW(static_cast<void>(Space::torus(0)), std::invalid_argument);
}

TEST(Torus, SizeIsBoundedByThePointRange) {
  // side² must fit a Point: 3037000499² <= INT64_MAX < 3037000500².
  constexpr std::uint32_t kMaxSide = 3037000499u;
  EXPECT_EQ(Space::torus(kMaxSide).size(), std::uint64_t{kMaxSide} * kMaxSide);
  EXPECT_THROW(static_cast<void>(Space::torus(kMaxSide + 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Space::torus(std::numeric_limits<std::uint32_t>::max())),
               std::invalid_argument);
}

// -- Space: shared queries and the kind checks ---------------------------------

TEST(Space, TorusDistanceMatchesReferenceAcrossSides) {
  // Exercises the reciprocal-multiplication coordinate split against the
  // plain-division reference, including the largest side the magic path
  // admits (65536), the first side past it, and sides around powers of two.
  for (const std::uint32_t side : {2u, 3u, 317u, 4096u, 4097u, 65535u, 65536u, 65537u}) {
    const Space s = Space::torus(side);
    util::Rng rng(side);
    for (int trial = 0; trial < 2000; ++trial) {
      const auto a = static_cast<Point>(rng.next_below(s.size()));
      const auto b = static_cast<Point>(rng.next_below(s.size()));
      ASSERT_EQ(s.distance(a, b), reference_torus_distance(side, a, b))
          << "side=" << side << " a=" << a << " b=" << b;
    }
    // Edge positions: corners of the flattened range.
    const auto last = static_cast<Point>(s.size() - 1);
    EXPECT_EQ(s.distance(0, last), reference_torus_distance(side, 0, last));
    EXPECT_EQ(s.distance(last, last), 0u);
    EXPECT_EQ(s.coords(last), std::make_pair(side - 1, side - 1));
  }
}

TEST(Space, KindsAndFactories) {
  EXPECT_EQ(Space::line(8).kind(), Space::Kind::kLine);
  EXPECT_EQ(Space::ring(8).kind(), Space::Kind::kRing);
  EXPECT_EQ(Space::torus(4).kind(), Space::Kind::kTorus);
  EXPECT_TRUE(Space::line(8).one_dimensional());
  EXPECT_TRUE(Space::ring(8).one_dimensional());
  EXPECT_FALSE(Space::torus(4).one_dimensional());
  EXPECT_EQ(Space::torus(4).size(), 16u);
  EXPECT_EQ(Space::torus(6).side(), 6u);
  EXPECT_EQ(Space::line(8), Space::line(8));
  EXPECT_NE(Space::line(8), Space::ring(8));
  EXPECT_NE(Space::ring(16), Space::torus(4));  // same size, different metric
}

TEST(Space, SidednessOperationsThrowOnTorus) {
  const Space torus = Space::torus(6);
  EXPECT_THROW(static_cast<void>(torus.offset(0, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(torus.direction(0, 1)), std::invalid_argument);
}

TEST(Space, LatticeOperationsThrowOnLineAndRing) {
  for (const Space& s : {Space::line(16), Space::ring(16)}) {
    EXPECT_THROW(static_cast<void>(s.side()), std::invalid_argument) << s.to_string();
    EXPECT_THROW(static_cast<void>(s.coords(3)), std::invalid_argument) << s.to_string();
    EXPECT_THROW(static_cast<void>(s.at(1, 2)), std::invalid_argument) << s.to_string();
    EXPECT_THROW(static_cast<void>(s.axis_count(1)), std::invalid_argument) << s.to_string();
    EXPECT_THROW(static_cast<void>(s.ring_size(1)), std::invalid_argument) << s.to_string();
  }
}

TEST(Space, ToStringNamesTheMetric) {
  EXPECT_EQ(Space::line(8).to_string(), "line(8)");
  EXPECT_EQ(Space::ring(16).to_string(), "ring(16)");
  EXPECT_EQ(Space::torus(32).to_string(), "torus(32x32)");
}

// -- Metric axioms, parameterized over every kind ------------------------------

struct SpaceCase {
  std::string name;
  Space space;
};

class MetricAxioms : public ::testing::TestWithParam<SpaceCase> {};

TEST_P(MetricAxioms, SymmetryIdentityTriangle) {
  const Space& s = GetParam().space;
  util::Rng rng(37);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<Point>(rng.next_below(s.size()));
    const auto b = static_cast<Point>(rng.next_below(s.size()));
    const auto c = static_cast<Point>(rng.next_below(s.size()));
    EXPECT_EQ(s.distance(a, b), s.distance(b, a));
    EXPECT_EQ(s.distance(a, a), 0u);
    if (a != b) {
      EXPECT_GT(s.distance(a, b), 0u);
    }
    EXPECT_LE(s.distance(a, c), s.distance(a, b) + s.distance(b, c));
    EXPECT_LE(s.distance(a, b), s.diameter());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, MetricAxioms,
    ::testing::Values(SpaceCase{"line64", Space::line(64)},
                      SpaceCase{"ring64", Space::ring(64)},
                      SpaceCase{"ring65_odd", Space::ring(65)},
                      SpaceCase{"line2", Space::line(2)},
                      SpaceCase{"ring2", Space::ring(2)},
                      SpaceCase{"ring3", Space::ring(3)},
                      SpaceCase{"torus8", Space::torus(8)},
                      SpaceCase{"torus9_odd", Space::torus(9)},
                      SpaceCase{"torus6", Space::torus(6)},
                      SpaceCase{"torus7_odd", Space::torus(7)},
                      SpaceCase{"torus2", Space::torus(2)}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace p2p::metric
