// Unit tests for util/rng.h: determinism, range correctness, stream
// independence, and the Poisson sampler's moments.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace p2p::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng());
  EXPECT_EQ(seen.size(), 100u);  // no immediate repetition from a zero state
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(7);
  const std::uint64_t first = rng();
  rng.reseed(7);
  EXPECT_EQ(rng(), first);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBound)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 10.0, 600.0);  // ~6 sigma
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000.0, 0.5, 0.01);
}

TEST(Rng, NextBoolMatchesProbability) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 100'000; ++i) heads += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 100'000.0, 0.3, 0.01);
}

TEST(Rng, NextBoolDegenerateProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, SplitStreamsAreUncorrelated) {
  Rng parent(29);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Splitmix64, KnownFixedPointFree) {
  // Distinct small inputs map to distinct well-spread outputs.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(splitmix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Poisson, ZeroMeanGivesZero) {
  Rng rng(31);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(poisson_sample(rng, 0.0), 0);
}

TEST(Poisson, MeanAndVarianceMatch) {
  Rng rng(37);
  const double mean = 14.0;  // the paper's Fig-5 link count
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = poisson_sample(rng, mean);
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kDraws;
  const double var = sum_sq / kDraws - m * m;
  EXPECT_NEAR(m, mean, 0.15);
  EXPECT_NEAR(var, mean, 0.5);  // Poisson: variance == mean
}

TEST(Poisson, LargeMeansMatchMeanAndVariance) {
  // Means past the first 30-chunk and across several chunks: the per-draw
  // bound exp(-mean) must stay positive and exact enough that draws follow
  // Poisson(mean) instead of running to the 10,000 cap.
  for (const double mean : {17.0, 24.0, 52.0, 200.0}) {
    Rng rng(43);
    double sum = 0.0, sum_sq = 0.0;
    int max_draw = 0;
    constexpr int kDraws = 50'000;
    for (int i = 0; i < kDraws; ++i) {
      const int draw = poisson_sample(rng, mean);
      max_draw = draw > max_draw ? draw : max_draw;
      const double x = draw;
      sum += x;
      sum_sq += x * x;
    }
    const double m = sum / kDraws;
    const double var = sum_sq / kDraws - m * m;
    // Five standard errors of each estimate.
    EXPECT_NEAR(m, mean, 5.0 * std::sqrt(mean / kDraws)) << "mean=" << mean;
    EXPECT_NEAR(var, mean, 5.0 * mean * std::sqrt(2.0 / kDraws)) << "mean=" << mean;
    EXPECT_LT(max_draw, 10'000) << "mean=" << mean;
  }
}

TEST(Poisson, SmallMeanMostlyZero) {
  Rng rng(41);
  int zeros = 0;
  for (int i = 0; i < 10'000; ++i) zeros += poisson_sample(rng, 0.01) == 0 ? 1 : 0;
  EXPECT_GT(zeros, 9'800);  // P(0) = e^-0.01 ~ 0.99
}

TEST(Poisson, ReturnsForHugeAndInfiniteMeans) {
  // Means past double's integer precision used to spin forever.
  Rng rng(37);
  for (const double mean : {1e17, 1e300, std::numeric_limits<double>::infinity()}) {
    const int draw = poisson_sample(rng, mean);
    EXPECT_GE(draw, 0) << mean;
    EXPECT_LE(draw, 10'000) << mean;
  }
}

}  // namespace
}  // namespace p2p::util
