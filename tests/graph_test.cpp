// Unit + property tests for the graph substrate: overlay store, link
// distributions and the ideal builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/link_distribution.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace p2p::graph {
namespace {

using metric::Space;

TEST(OverlayGraph, DensePositionsAreIdentity) {
  const OverlayGraph g = GraphBuilder(Space::ring(8)).freeze();
  EXPECT_EQ(g.size(), 8u);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.position(u), static_cast<metric::Point>(u));
  EXPECT_EQ(g.node_at(5), 5u);
  EXPECT_EQ(g.node_nearest(5), 5u);
}

TEST(OverlayGraph, SparsePositionsMapCorrectly) {
  const OverlayGraph g = GraphBuilder(Space::line(100), {3, 10, 50, 99}).freeze();
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.position(2), 50);
  EXPECT_EQ(g.node_at(10), 1u);
  EXPECT_EQ(g.node_at(11), kInvalidNode);
}

TEST(OverlayGraph, NodeNearestPicksClosest) {
  const OverlayGraph g = GraphBuilder(Space::line(100), {3, 10, 50, 99}).freeze();
  EXPECT_EQ(g.node_nearest(4), 0u);
  EXPECT_EQ(g.node_nearest(7), 1u);   // 7 is 4 from 3, 3 from 10
  EXPECT_EQ(g.node_nearest(30), 1u);  // 20 from 10, 20 from 50 -> lower position
  EXPECT_EQ(g.node_nearest(80), 3u);
}

TEST(OverlayGraph, NodeNearestWrapsOnRing) {
  const OverlayGraph g = GraphBuilder(Space::ring(100), {10, 90}).freeze();
  EXPECT_EQ(g.node_nearest(99), 1u);  // 9 from 90, 11 from 10 via wrap
  EXPECT_EQ(g.node_nearest(1), 0u);   // 9 from 10, 11 from 90 via wrap
}

TEST(OverlayGraph, NeighborSpansSplitShortAndLong) {
  GraphBuilder b(Space::line(5));
  b.add_short_link(2, 1);
  b.add_short_link(2, 3);
  b.add_long_link(2, 0);
  const OverlayGraph g = b.freeze();
  EXPECT_EQ(g.short_degree(2), 2u);
  EXPECT_EQ(g.out_degree(2), 3u);
  ASSERT_EQ(g.long_neighbors(2).size(), 1u);
  EXPECT_EQ(g.long_neighbors(2)[0], 0u);
  EXPECT_EQ(g.link_count(), 3u);
}

TEST(OverlayGraph, InDegreesCountIncomingLinks) {
  GraphBuilder b(Space::line(4));
  b.add_long_link(0, 2);
  b.add_long_link(1, 2);
  b.add_long_link(2, 0);
  b.add_long_link(3, 2);
  const OverlayGraph g = b.freeze();
  const auto in = g.in_degrees();
  EXPECT_EQ(in[2], 3u);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 0u);
}

TEST(OverlayGraph, LongLinkLengths) {
  GraphBuilder b(Space::ring(10));
  b.add_short_link(0, 1);
  b.add_long_link(0, 4);  // length 4
  b.add_long_link(0, 9);  // length 1 on the ring
  const auto lengths = b.freeze().long_link_lengths();
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 4u);
  EXPECT_EQ(lengths[1], 1u);
}

TEST(GraphBuilder, RejectsUnsortedSparsePositions) {
  EXPECT_THROW(GraphBuilder(Space::line(10), {5, 3}), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space::line(10), {3, 3}), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space::line(10), {3, 11}), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space::line(10), std::vector<metric::Point>{}),
               std::invalid_argument);
}

// The compact header stores a node's short degree in 16 bits, so the builder
// refuses the 65,536th short link of a node rather than let the compact
// freeze wrap it to 0 (and list every link as long) while the standard
// layout reports 65,536.
TEST(GraphBuilder, ShortDegreeIsCappedAtSixteenBits) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint16_t>::max();
  const auto build = [](EdgeLayout layout) {
    GraphBuilder b(Space::line(3));
    for (std::size_t i = 0; i < kMax; ++i) b.add_short_link(0, 1);
    EXPECT_THROW(b.add_short_link(0, 2), std::invalid_argument);
    b.add_short_link(1, 0);  // the next node starts its own count
    b.add_long_link(0, 2);
    return b.freeze(layout);
  };
  const OverlayGraph standard = build(EdgeLayout::kStandard);
  const OverlayGraph compact = build(EdgeLayout::kCompact);
  for (const OverlayGraph* g : {&standard, &compact}) {
    EXPECT_EQ(g->short_degree(0), kMax);
    EXPECT_EQ(g->out_degree(0), kMax + 1);
    ASSERT_EQ(g->long_neighbors(0).size(), 1u);
    EXPECT_EQ(g->long_neighbors(0)[0], 2u);
    EXPECT_EQ(g->short_degree(1), 1u);
  }
}

// -- Guided inverse-CDF search -------------------------------------------------

/// The sampler's prefix table for `space` and exponent r, built the same way.
std::vector<double> power_law_prefix(const metric::Space& space, double r) {
  const metric::Distance diam = space.diameter();
  std::vector<double> prefix(diam + 1, 0.0);
  for (metric::Distance d = 1; d <= diam; ++d) {
    double w = std::pow(static_cast<double>(d), -r);
    if (!space.one_dimensional()) {
      w = static_cast<double>(space.ring_size(d)) * w;
    }
    prefix[d] = prefix[d - 1] + w;
  }
  return prefix;
}

std::size_t reference_upper_bound(const std::vector<double>& prefix, std::size_t limit,
                                  double u) {
  return static_cast<std::size_t>(
      std::upper_bound(prefix.begin() + 1,
                       prefix.begin() + static_cast<std::ptrdiff_t>(limit) + 1, u) -
      prefix.begin());
}

std::vector<metric::Space> search_spaces() {
  return {Space::ring(4096), Space::ring(4097), Space::ring(2),   Space::ring(3),
          Space::ring(130),  Space::line(3000), Space::line(2),   Space::torus(32),
          Space::torus(33)};
}

TEST(GuidedSearch, MatchesUpperBoundAtBoundaryValues) {
  for (const metric::Space& space : search_spaces()) {
    for (const double r : {0.0, 1.0, 2.0, 40.0}) {
      const std::vector<double> prefix = power_law_prefix(space, r);
      const detail::GuidedSearch search(prefix);
      const std::size_t m = prefix.size() - 1;
      ASSERT_EQ(search.last(), m);
      for (std::size_t i = 0; i <= m; ++i) ASSERT_EQ(search[i], prefix[i]);
      ASSERT_GE(search.buckets(), 1u);
      std::vector<double> values = {0.0, std::nextafter(0.0, 1.0)};
      const auto around = [&](double x) {
        values.push_back(x);
        values.push_back(std::nextafter(x, 0.0));
        values.push_back(std::nextafter(x, HUGE_VAL));
      };
      for (const double p : prefix) around(p);
      const double buckets = static_cast<double>(search.buckets());
      for (std::size_t b = 0; b <= search.buckets(); ++b) {
        around(static_cast<double>(b) * prefix[m] / buckets);
        around(static_cast<double>(b) / (buckets / prefix[m]));
      }
      // Limits the samplers pass: the ring's n/2 and n/2 - 1, the line's
      // left and right extents from every source, the torus diameter.
      std::vector<std::size_t> limits = {0, 1, m / 2, m > 0 ? m - 1 : 0, m};
      if (m <= 65) {
        // Every limit, so some cut through a counted bracket (on ring(130)
        // at r = 1 the brackets near d = 65 span several entries).
        for (std::size_t l = 0; l <= m; ++l) limits.push_back(l);
      } else if (space.kind() == metric::Space::Kind::kLine) {
        for (std::size_t l = 0; l <= m; l += std::max<std::size_t>(1, m / 64)) {
          limits.push_back(l);
        }
      }
      for (const std::size_t limit : limits) {
        // The largest draw: next_double()'s maximum times the limit's mass.
        values.push_back(prefix[limit] * (1.0 - 0x1p-53));
        values.push_back(std::nextafter(prefix[limit], 0.0));
      }
      // Many values and limits coincide (the bucket edges of a uniform
      // table are its prefixes); check each once.
      const auto dedupe = [](auto& list) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      };
      dedupe(values);
      dedupe(limits);
      for (const std::size_t limit : limits) {
        for (const double u : values) {
          ASSERT_EQ(search.upper_bound(limit, u),
                    reference_upper_bound(prefix, limit, u))
              << space.to_string() << " r=" << r << " limit=" << limit << " u=" << u;
        }
      }
    }
  }
}

/// The pre-guide sampler's draw, one std::upper_bound per magnitude, taken
/// from `rng`. On the torus it returns only the radius: the rest of the draw
/// does not search.
metric::Point reference_draw(const metric::Space& space, const std::vector<double>& prefix,
                             double r, util::Rng& rng, metric::Point source) {
  const std::size_t m = prefix.size() - 1;
  if (space.kind() == metric::Space::Kind::kTorus) {
    return static_cast<metric::Point>(
        std::min(reference_upper_bound(prefix, m, rng.next_double() * prefix[m]), m));
  }
  if (space.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<std::size_t>(source);
    const std::size_t right = space.size() - 1 - left;
    const bool go_left =
        rng.next_double() * (prefix[left] + prefix[right]) < prefix[left];
    const std::size_t limit = go_left ? left : right;
    const std::size_t d =
        std::min(reference_upper_bound(prefix, limit, rng.next_double() * prefix[limit]), limit);
    return go_left ? source - static_cast<metric::Point>(d)
                   : source + static_cast<metric::Point>(d);
  }
  const std::size_t half = space.size() / 2;
  const bool even = space.size() % 2 == 0;
  const double antipode = even ? std::pow(static_cast<double>(half), -r) : 0.0;
  const double u = rng.next_double() * (2.0 * prefix[half] - antipode);
  if (u < prefix[half]) {
    const std::size_t d = std::min(reference_upper_bound(prefix, half, u), half);
    return *space.offset(source, static_cast<std::int64_t>(d));
  }
  const std::size_t limit = even ? half - 1 : half;
  const std::size_t d = std::min(reference_upper_bound(prefix, limit, u - prefix[half]), limit);
  return *space.offset(source, -static_cast<std::int64_t>(d));
}

/// Compares one sample_target draw from `source`, and on a line or a ring a
/// batch of `batch` sample_targets draws, with consecutive reference draws
/// from the same `seed`; after the batch the two rngs must agree as well.
::testing::AssertionResult draws_match_reference(const PowerLawLinkSampler& sampler,
                                                 const std::vector<double>& prefix, double r,
                                                 const util::Rng& seed, metric::Point source,
                                                 std::size_t batch) {
  const metric::Space& space = sampler.space();
  util::Rng draw_rng = seed;
  util::Rng ref_rng = seed;
  const metric::Point target = sampler.sample_target(draw_rng, source);
  const metric::Point got = space.kind() == metric::Space::Kind::kTorus
                                ? static_cast<metric::Point>(space.distance(source, target))
                                : target;
  const metric::Point want = reference_draw(space, prefix, r, ref_rng, source);
  if (got != want) {
    return ::testing::AssertionFailure() << "single draw " << got << ", want " << want;
  }
  // The torus reference stops at the radius, so its rng state tells nothing.
  if (space.kind() == metric::Space::Kind::kTorus) return ::testing::AssertionSuccess();
  draw_rng = seed;
  ref_rng = seed;
  std::vector<metric::Point> drawn(batch);
  sampler.sample_targets(draw_rng, source, drawn.data(), batch);
  for (std::size_t k = 0; k < batch; ++k) {
    const metric::Point expected = reference_draw(space, prefix, r, ref_rng, source);
    if (drawn[k] != expected) {
      return ::testing::AssertionFailure()
             << "batch draw " << k << " of " << batch << ": " << drawn[k] << ", want "
             << expected;
    }
  }
  if (draw_rng() != ref_rng()) {
    return ::testing::AssertionFailure() << "rng state after a batch of " << batch;
  }
  return ::testing::AssertionSuccess();
}

/// Batch sizes for the seeded draws: one draw in eight also runs a batch of
/// 0..19.
std::size_t batch_size(std::uint64_t i) { return i % 8 == 0 ? i / 8 % 20 : 0; }

TEST(GuidedSearch, SeededDrawsMatchUpperBoundReference) {
  for (const metric::Space& space : search_spaces()) {
    for (const double r : {0.0, 1.0, 2.0, 40.0}) {
      const PowerLawLinkSampler sampler(space, r);
      const std::vector<double> prefix = power_law_prefix(space, r);
      for (std::uint64_t i = 0; i < 100'000 / 32; ++i) {
        const auto source = static_cast<metric::Point>(i * 7919 % space.size());
        ASSERT_TRUE(draws_match_reference(sampler, prefix, r, util::substream(0x5eed, i),
                                          source, batch_size(i)))
            << space.to_string() << " r=" << r << " draw " << i;
      }
    }
  }
  // Lookup-scale tables: past the small spaces' 4097 points a guide bucket
  // spans up to ~50 entries, so draws take both the narrow-bracket count and
  // the wider search.
  const std::pair<metric::Space, double> large[] = {
      {Space::ring(1u << 19), 1.0}, {Space::line(1u << 19), 1.0}, {Space::torus(512), 2.0}};
  for (const auto& [space, r] : large) {
    const PowerLawLinkSampler sampler(space, r);
    const std::vector<double> prefix = power_law_prefix(space, r);
    for (std::uint64_t i = 0; i < (1u << 16); ++i) {
      const auto source = static_cast<metric::Point>(i * 7919 % space.size());
      ASSERT_TRUE(draws_match_reference(sampler, prefix, r, util::substream(0x1a7e, i), source,
                                        batch_size(i)))
          << space.to_string() << " r=" << r << " draw " << i;
    }
  }
}

// -- The 8-lane ring kernel ---------------------------------------------------

/// True where sample_ring_block can run: an x86-64 CPU with AVX-512F/DQ/VL.
bool cpu_runs_ring_kernel() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

/// Runs one sample_ring_block call from `seeds` and compares every lane
/// with sample_targets from the same seed, as the builders map its targets
/// (a target equal to its source is kInvalidNode), the rng states after
/// the draws, and the entries past the block, which must stay unwritten.
/// Sets `ran` to whether the kernel ran; when it did not, nothing is
/// compared.
::testing::AssertionResult ring_block_matches_per_node(const PowerLawLinkSampler& sampler,
                                                       const util::Rng* seeds,
                                                       const metric::Point* sources,
                                                       std::size_t count, bool& ran) {
  constexpr std::size_t kLanes = PowerLawLinkSampler::kBlockLanes;
  constexpr NodeId kUnwritten = 0xdeadbeef;
  util::Rng rngs[kLanes];
  std::copy(seeds, seeds + kLanes, rngs);
  std::vector<NodeId> out(kLanes * count + 4, kUnwritten);
  ran = sampler.sample_ring_block(rngs, sources, count, out.data());
  if (!ran) return ::testing::AssertionSuccess();
  std::vector<metric::Point> drawn(count);
  for (std::size_t i = 0; i < kLanes; ++i) {
    util::Rng ref = seeds[i];
    sampler.sample_targets(ref, sources[i], drawn.data(), count);
    for (std::size_t k = 0; k < count; ++k) {
      const NodeId want = drawn[k] == sources[i] ? kInvalidNode : static_cast<NodeId>(drawn[k]);
      if (out[i * count + k] != want) {
        return ::testing::AssertionFailure() << "lane " << i << " draw " << k << ": "
                                             << out[i * count + k] << ", want " << want;
      }
    }
    if (rngs[i].state() != ref.state()) {
      return ::testing::AssertionFailure() << "lane " << i << ": rng state after the draws";
    }
  }
  for (std::size_t j = kLanes * count; j < out.size(); ++j) {
    if (out[j] != kUnwritten) return ::testing::AssertionFailure() << "wrote past its block";
  }
  return ::testing::AssertionSuccess();
}

/// A generator whose first output is `first`: xoshiro256++ returns
/// rotl(s0 + s3, 23) + s0, so s3 follows from s0 and that output.
util::Rng rng_starting_with(std::uint64_t first, std::uint64_t salt) {
  util::Rng filler(salt);
  std::array<std::uint64_t, 4> state = {filler(), filler(), filler(), 0};
  const std::uint64_t sum = first - state[0];
  state[3] = ((sum >> 23) | (sum << 41)) - state[0];
  util::Rng rng;
  rng.set_state(state);
  return rng;
}

TEST(PowerLawLinkSampler, RingBlockKernelMatchesPerNodeDraws) {
  constexpr std::size_t kLanes = PowerLawLinkSampler::kBlockLanes;
  std::size_t blocks = 0;
  std::size_t ran_blocks = 0;
  const auto check = [&](const PowerLawLinkSampler& sampler, const util::Rng* seeds,
                         const metric::Point* sources, std::size_t count) {
    bool ran = false;
    const ::testing::AssertionResult match =
        ring_block_matches_per_node(sampler, seeds, sources, count, ran);
    ++blocks;
    ran_blocks += ran ? 1 : 0;
    return match;
  };
  // Rings below eight nodes, where lanes repeat sources; rings whose tables
  // sit in L1; lookup's ring; and one past 2^21 nodes, where kMaxBuckets
  // caps the guide, its buckets span several entries, and more lanes draw
  // past the kPad entries the kernel counts and fall back to the scalar
  // search.
  const std::uint64_t sizes[] = {2, 3, 4, 5, 9, 4096, 4097, 1u << 19, (1u << 21) + 1001};
  for (const std::uint64_t n : sizes) {
    for (const double r : {0.0, 1.0, 2.0, 40.0}) {
      const Space space = Space::ring(n);
      const PowerLawLinkSampler sampler(space, r);
      const std::string where = space.to_string() + " r=" + std::to_string(r);
      metric::Point sources[kLanes];
      util::Rng seeds[kLanes];
      // Seeded blocks that start off multiples of 8, at the ring's end
      // (lanes wrap to node 0) and at scattered nodes; 0–19 draws per node.
      for (std::uint64_t block = 0; block < 48; ++block) {
        const std::uint64_t starts[] = {0, 1, 3, n - 1, n - 5};
        const std::uint64_t first = block < 5 ? starts[block] % n : (block * 7919 + 3) % n;
        for (std::size_t i = 0; i < kLanes; ++i) {
          sources[i] = static_cast<metric::Point>((first + i) % n);
          seeds[i] = util::substream(n * 41 + static_cast<std::uint64_t>(r), block * kLanes + i);
        }
        ASSERT_TRUE(check(sampler, seeds, sources, block % 20)) << where << " block " << block;
      }
      if (n > 4097) continue;
      // Draws placed at the boundaries: u within two steps of every prefix
      // entry and bucket edge on either side of the ring. They reach the
      // guide's first and last buckets (lo - 1 = 0; lo near m + 1, whose
      // count reads the sentinels), the edges of every counted window, and
      // any draw where rounding in the bucket arithmetic would fail the
      // kernel's check.
      const std::vector<double> prefix = power_law_prefix(space, r);
      const std::size_t half = n / 2;
      const double antipode = n % 2 == 0 ? std::pow(static_cast<double>(half), -r) : 0.0;
      const double total = 2.0 * prefix[half] - antipode;
      const std::size_t buckets = detail::GuidedSearch(prefix).buckets();
      std::vector<double> masses(prefix.begin(), prefix.end());
      for (std::size_t b = 0; b <= buckets; ++b) {
        masses.push_back(static_cast<double>(b) * prefix.back() / static_cast<double>(buckets));
      }
      std::vector<std::uint64_t> draws;
      for (const double mass : masses) {
        for (const double u : {mass, prefix[half] + mass}) {
          const auto k = static_cast<std::int64_t>(u / total * 0x1p53);
          for (std::int64_t step = -2; step <= 2; ++step) {
            if (k + step >= 0 && k + step < (std::int64_t{1} << 53)) {
              draws.push_back(static_cast<std::uint64_t>(k + step) << 11);
            }
          }
        }
      }
      for (std::size_t j = 0; j < draws.size(); j += kLanes) {
        for (std::size_t i = 0; i < kLanes; ++i) {
          sources[i] = static_cast<metric::Point>((j + i) % n);
          seeds[i] = rng_starting_with(draws[(j + i) % draws.size()], j + i);
        }
        ASSERT_TRUE(check(sampler, seeds, sources, 1)) << where << " boundary draw " << j;
      }
    }
  }
  // Spaces the kernel does not serve: nothing drawn, nothing written.
  for (const metric::Space& space : {Space::line(64), Space::torus(8)}) {
    const PowerLawLinkSampler sampler(space, 1.0);
    metric::Point sources[kLanes] = {};
    util::Rng rngs[kLanes];
    NodeId out[kLanes] = {};
    EXPECT_FALSE(sampler.sample_ring_block(rngs, sources, 1, out)) << space.to_string();
    EXPECT_EQ(rngs[0].state(), util::Rng().state());
    EXPECT_EQ(out[0], 0u);
  }
  std::printf("ring kernel: %s (%zu of %zu ring blocks)\n", ran_blocks > 0 ? "ran" : "did not run",
              ran_blocks, blocks);
  if (cpu_runs_ring_kernel()) {
    EXPECT_EQ(ran_blocks, blocks) << "an AVX-512F/DQ/VL host must run the kernel on every ring";
  } else {
    EXPECT_EQ(ran_blocks, 0u);
  }
}

// -- Power-law sampler --------------------------------------------------------

TEST(PowerLawLinkSampler, RejectsSourceOutsideSpace) {
  for (const metric::Space& space : {Space::ring(64), Space::line(64), Space::torus(8)}) {
    const PowerLawLinkSampler sampler(space, 1.0);
    metric::Point unused = 0;
    util::Rng rng(1);
    EXPECT_THROW(sampler.sample_targets(rng, static_cast<metric::Point>(space.size()), &unused, 1),
                 std::invalid_argument);
  }
}

TEST(PowerLawLinkSampler, NeverReturnsSource) {
  const PowerLawLinkSampler s(Space::ring(64), 1.0);
  util::Rng rng(1);
  for (int i = 0; i < 5000; ++i) EXPECT_NE(s.sample_target(rng, 17), 17);
}

TEST(PowerLawLinkSampler, ProbabilitiesSumToOneOnRing) {
  const PowerLawLinkSampler s(Space::ring(16), 1.0);
  double total = 0.0;
  for (metric::Point v = 0; v < 16; ++v) total += s.probability(3, v);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PowerLawLinkSampler, ProbabilitiesSumToOneOnLine) {
  for (const metric::Point src : {0, 5, 15}) {
    const PowerLawLinkSampler s(Space::line(16), 1.0);
    double total = 0.0;
    for (metric::Point v = 0; v < 16; ++v) total += s.probability(src, v);
    EXPECT_NEAR(total, 1.0, 1e-12) << "src=" << src;
  }
}

TEST(PowerLawLinkSampler, InverseDistanceShapeOnRing) {
  const PowerLawLinkSampler s(Space::ring(64), 1.0);
  // P(distance d) should be proportional to 1/d for each individual node.
  const double p1 = s.probability(0, 1);
  const double p4 = s.probability(0, 4);
  const double p16 = s.probability(0, 16);
  EXPECT_NEAR(p1 / p4, 4.0, 1e-9);
  EXPECT_NEAR(p4 / p16, 4.0, 1e-9);
}

TEST(PowerLawLinkSampler, ExponentZeroIsUniform) {
  const PowerLawLinkSampler s(Space::ring(32), 0.0);
  const double p = s.probability(0, 1);
  for (metric::Point v = 1; v < 32; ++v) {
    EXPECT_NEAR(s.probability(0, v), p, 1e-12);
  }
}

TEST(PowerLawLinkSampler, EmpiricalMatchesExactOnRing) {
  const Space space = Space::ring(128);
  const PowerLawLinkSampler s(space, 1.0);
  util::Rng rng(7);
  constexpr int kDraws = 400'000;
  std::vector<double> freq(128, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    freq[static_cast<std::size_t>(s.sample_target(rng, 0))] += 1.0;
  }
  for (metric::Point v = 1; v < 128; ++v) {
    const double p = s.probability(0, v);
    const double sigma = std::sqrt(p * (1 - p) / kDraws);
    EXPECT_NEAR(freq[static_cast<std::size_t>(v)] / kDraws, p, 6 * sigma + 1e-4)
        << "v=" << v;
  }
}

TEST(PowerLawLinkSampler, EmpiricalMatchesExactOnLineEdges) {
  // A node at the line's edge has only one side to link to.
  const Space space = Space::line(64);
  const PowerLawLinkSampler s(space, 1.0);
  util::Rng rng(9);
  constexpr int kDraws = 200'000;
  std::vector<double> freq(64, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    const metric::Point t = s.sample_target(rng, 0);
    ASSERT_GT(t, 0);
    freq[static_cast<std::size_t>(t)] += 1.0;
  }
  for (metric::Point v = 1; v < 64; ++v) {
    const double p = s.probability(0, v);
    const double sigma = std::sqrt(p * (1 - p) / kDraws);
    EXPECT_NEAR(freq[static_cast<std::size_t>(v)] / kDraws, p, 6 * sigma + 1e-4);
  }
}

TEST(PowerLawLinkSampler, TinySpaces) {
  util::Rng rng(11);
  const PowerLawLinkSampler ring2(Space::ring(2), 1.0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ring2.sample_target(rng, 0), 1);
  const PowerLawLinkSampler ring3(Space::ring(3), 1.0);
  for (int i = 0; i < 20; ++i) EXPECT_NE(ring3.sample_target(rng, 1), 1);
  const PowerLawLinkSampler line2(Space::line(2), 1.0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(line2.sample_target(rng, 1), 0);
}

TEST(PowerLawLinkSampler, RejectsBadParameters) {
  EXPECT_THROW(PowerLawLinkSampler(Space::ring(1), 1.0), std::invalid_argument);
  EXPECT_THROW(PowerLawLinkSampler(Space::ring(8), -0.5), std::invalid_argument);
}

// -- Deterministic link sets ---------------------------------------------------

TEST(BaseBOffsets, FullSetBase2) {
  // {1, 2, 4, 8} for n = 16 (digits {1} times powers below n).
  EXPECT_EQ(base_b_full_offsets(16, 2),
            (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(BaseBOffsets, FullSetBase4) {
  // digits {1,2,3} x powers {1,4,16} -> {1,2,3,4,8,12,16,32,48} for n = 64.
  EXPECT_EQ(base_b_full_offsets(64, 4),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 8, 12, 16, 32, 48}));
}

TEST(BaseBOffsets, PowersOnlySet) {
  EXPECT_EQ(base_b_power_offsets(100, 10), (std::vector<std::uint64_t>{1, 10}));
  EXPECT_EQ(base_b_power_offsets(101, 10),
            (std::vector<std::uint64_t>{1, 10, 100}));
}

TEST(BaseBOffsets, CanExpressEveryDistance) {
  // Greedy digit elimination must be able to cover any distance below n.
  const std::uint64_t n = 1000;
  for (const unsigned base : {2u, 3u, 10u}) {
    const auto offsets = base_b_full_offsets(n, base);
    for (std::uint64_t target : {1ULL, 7ULL, 999ULL, 512ULL}) {
      std::uint64_t remaining = target;
      std::size_t steps = 0;
      while (remaining > 0 && steps < 64) {
        // largest offset <= remaining
        const auto it =
            std::upper_bound(offsets.begin(), offsets.end(), remaining);
        ASSERT_NE(it, offsets.begin());
        remaining -= *std::prev(it);
        ++steps;
      }
      EXPECT_EQ(remaining, 0u) << "base=" << base << " target=" << target;
    }
  }
}

TEST(BaseBOffsets, RejectBadParameters) {
  EXPECT_THROW(base_b_full_offsets(10, 1), std::invalid_argument);
  EXPECT_THROW(base_b_full_offsets(1, 2), std::invalid_argument);
  EXPECT_THROW(base_b_power_offsets(10, 0), std::invalid_argument);
}

// -- Unified sampler on the Kleinberg torus -----------------------------------

TEST(TorusSampler, NeverReturnsSourceAndStaysInGrid) {
  const metric::Space torus = metric::Space::torus(8);
  const PowerLawLinkSampler s(torus, 2.0);
  util::Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const metric::Point t = s.sample_target(rng, 11);
    EXPECT_NE(t, 11);
    EXPECT_TRUE(torus.contains(t));
  }
}

TEST(TorusSampler, RadiusDistributionMatchesWeights) {
  const metric::Space torus = metric::Space::torus(9);
  const double r = 2.0;
  const PowerLawLinkSampler s(torus, r);
  util::Rng rng(17);
  constexpr int kDraws = 200'000;
  std::vector<double> by_radius(torus.diameter() + 1, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    by_radius[torus.distance(0, s.sample_target(rng, 0))] += 1.0;
  }
  double norm = 0.0;
  for (metric::Distance d = 1; d <= torus.diameter(); ++d) {
    norm += static_cast<double>(torus.ring_size(d)) * std::pow(d, -r);
  }
  for (metric::Distance d = 1; d <= torus.diameter(); ++d) {
    const double expect =
        static_cast<double>(torus.ring_size(d)) * std::pow(d, -r) / norm;
    const double sigma = std::sqrt(expect * (1 - expect) / kDraws);
    EXPECT_NEAR(by_radius[d] / kDraws, expect, 6 * sigma + 2e-3) << "d=" << d;
  }
}

/// The row-part choice as the sampler first made it: subtract each row
/// part's weight from the pick until one exceeds what is left.
std::uint64_t reference_row_part(const metric::Space& torus, metric::Distance d,
                                 double pick) {
  const std::uint64_t rd_max = std::min<std::uint64_t>(d, torus.side() / 2);
  std::uint64_t rd = 0;
  for (std::uint64_t r = 0; r <= rd_max; ++r) {
    const double w = static_cast<double>(torus.axis_count(r) * torus.axis_count(d - r));
    if (pick < w) return r;
    pick -= w;
    rd = r;  // the last row part once the pick reaches the total
  }
  return rd;
}

TEST(TorusSampler, RowPartMatchesSequentialSubtraction) {
  util::Rng rng(71);
  for (std::uint32_t side = 1; side <= 70; ++side) {
    const metric::Space torus = metric::Space::torus(side);
    for (metric::Distance d = 0; d <= torus.diameter(); ++d) {
      const auto total = static_cast<double>(torus.ring_size(d));
      // Every integer the running sum can stop at, the values beside it,
      // random draws, the largest draw, and picks at or past the total.
      std::vector<double> picks = {(1.0 - 0x1p-53) * total, std::nextafter(total, HUGE_VAL),
                                   total + 4.0, 1e300};
      for (double edge = 0.0; edge <= total; edge += 1.0) {
        picks.insert(picks.end(), {edge, std::nextafter(edge, 0.0),
                                   std::nextafter(edge, HUGE_VAL), edge + 0.5});
      }
      for (int i = 0; i < 16; ++i) picks.push_back(rng.next_double() * total);
      for (const double pick : picks) {
        ASSERT_EQ(detail::torus_row_part(torus, d, pick), reference_row_part(torus, d, pick))
            << "side=" << side << " d=" << d << " pick=" << pick;
      }
    }
  }
}

// -- Ideal builder --------------------------------------------------------------

TEST(GraphBuilder, ShortLinksWireNearestNeighbours) {
  util::Rng rng(19);
  BuildSpec spec;
  spec.grid_size = 16;
  spec.long_links = 1;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(g.short_degree(u), 2u) << "ring nodes have two immediate links";
    const auto neigh = g.neighbors(u);
    const NodeId next = static_cast<NodeId>((u + 1) % g.size());
    const NodeId prev = static_cast<NodeId>((u + g.size() - 1) % g.size());
    EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), next) != neigh.end());
    EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), prev) != neigh.end());
  }
}

/// Node u's short links in slot order.
std::vector<NodeId> short_slice(const OverlayGraph& g, NodeId u) {
  std::vector<NodeId> links;
  for (const NodeId v : g.neighbors(u)) {
    if (links.size() < g.short_degree(u)) links.push_back(v);
  }
  return links;
}

TEST(GraphBuilder, ShortLinksKeepSlotOrder) {
  // FailureView link deltas name slots, so the wiring's order is part of the
  // graph: u + 1 first, then u - 1, each only where it exists (on a 2-node
  // ring both name the same node, wired once).
  using Slices = std::vector<std::vector<NodeId>>;
  const auto wired = [](GraphBuilder b) {
    b.wire_short_links();
    const OverlayGraph g = b.freeze();
    Slices slices;
    for (NodeId u = 0; u < g.size(); ++u) slices.push_back(short_slice(g, u));
    return slices;
  };
  EXPECT_EQ(wired(GraphBuilder(Space::ring(2))), (Slices{{1}, {0}}));
  EXPECT_EQ(wired(GraphBuilder(Space::ring(3))), (Slices{{1, 2}, {2, 0}, {0, 1}}));
  EXPECT_EQ(wired(GraphBuilder(Space::ring(4))), (Slices{{1, 3}, {2, 0}, {3, 1}, {0, 2}}));
  EXPECT_EQ(wired(GraphBuilder(Space::line(2))), (Slices{{1}, {0}}));
  EXPECT_EQ(wired(GraphBuilder(Space::line(3))), (Slices{{1}, {2, 0}, {1}}));
  // Sparse positions: node indices, not grid points, are the neighbours.
  EXPECT_EQ(wired(GraphBuilder(Space::ring(16), {1, 4, 5, 9, 15})),
            (Slices{{1, 4}, {2, 0}, {3, 1}, {4, 2}, {0, 3}}));
  EXPECT_EQ(wired(GraphBuilder(Space::line(16), {2, 7, 11})), (Slices{{1}, {2, 0}, {1}}));
}

TEST(GraphBuilder, LineEndpointsHaveOneShortLink) {
  util::Rng rng(23);
  BuildSpec spec;
  spec.grid_size = 16;
  spec.topology = Space::Kind::kLine;
  const OverlayGraph g = build_overlay(spec, rng);
  EXPECT_EQ(g.short_degree(0), 1u);
  EXPECT_EQ(g.short_degree(15), 1u);
  EXPECT_EQ(g.short_degree(7), 2u);
}

TEST(GraphBuilder, LongLinkCountMatchesSpec) {
  util::Rng rng(29);
  BuildSpec spec;
  spec.grid_size = 256;
  spec.long_links = 5;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(g.long_neighbors(u).size(), 5u);
  }
}

TEST(GraphBuilder, BinomialPresenceThinsTheGrid) {
  util::Rng rng(31);
  BuildSpec spec;
  spec.grid_size = 4096;
  spec.presence = 0.5;
  const OverlayGraph g = build_overlay(spec, rng);
  EXPECT_GT(g.size(), 1800u);
  EXPECT_LT(g.size(), 2300u);
  // Every node still has its two ring short links to *existing* neighbours.
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_GE(g.out_degree(u), g.short_degree(u));
  }
}

TEST(GraphBuilder, SparseLinksOnlyTargetExistingNodes) {
  util::Rng rng(37);
  BuildSpec spec;
  spec.grid_size = 1024;
  spec.presence = 0.3;
  spec.long_links = 3;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_LT(v, g.size());
    }
  }
}

TEST(GraphBuilder, BaseBFullLinksBothDirections) {
  util::Rng rng(41);
  BuildSpec spec;
  spec.grid_size = 64;
  spec.link_model = BuildSpec::LinkModel::kBaseBFull;
  spec.base = 2;
  const OverlayGraph g = build_overlay(spec, rng);
  // Node 32 on a 64-ring: offsets 1..32 both ways; offset 1 duplicates the
  // short links, so long links include ±2, ±4, ±8, ±16, ±32(=antipode).
  const auto neigh = g.neighbors(32);
  EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), 34u) != neigh.end());
  EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), 30u) != neigh.end());
  EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), 0u) != neigh.end());
}

TEST(GraphBuilder, RejectsBadSpecs) {
  util::Rng rng(43);
  BuildSpec spec;
  spec.grid_size = 1;
  EXPECT_THROW(build_overlay(spec, rng), std::invalid_argument);
  spec.grid_size = 16;
  spec.presence = 0.0;
  EXPECT_THROW(build_overlay(spec, rng), std::invalid_argument);
  spec.presence = 1.0;
  spec.exponent = -1.0;
  EXPECT_THROW(build_overlay(spec, rng), std::invalid_argument);
}

TEST(GraphBuilder, HopelessPresenceThrowsWithinItsDrawBudget) {
  // Presence so small that no pass yields two nodes. Every drawn point
  // takes one rng step, so the rng after the throw tells how many were
  // drawn: one pass on a grid of kMaxPresencePoints points, where the old
  // rule drew 1024 passes, and all kMaxPresencePasses passes on two points.
  const auto expect_draws = [](std::uint64_t grid_size, std::uint64_t draws) {
    const BuildSpec spec{.grid_size = grid_size, .presence = 1e-300};
    util::Rng rng(45);
    util::Rng drawn(45);
    for (std::uint64_t i = 0; i < draws; ++i) drawn();
    EXPECT_THROW(static_cast<void>(build_overlay(spec, rng)), std::invalid_argument)
        << grid_size << " points";
    EXPECT_EQ(rng.state(), drawn.state()) << grid_size << " points";
  };
  expect_draws(kMaxPresencePoints, kMaxPresencePoints);
  expect_draws(kMaxPresencePoints / 2 + 1, 2 * (kMaxPresencePoints / 2 + 1));
  expect_draws(2, 2 * kMaxPresencePasses);
}

TEST(GraphBuilder, RejectsTorusTopologyAndNamesTheTorusBuilder) {
  util::Rng rng(44);
  BuildSpec spec;
  spec.grid_size = 64;
  spec.topology = Space::Kind::kTorus;
  try {
    static_cast<void>(build_overlay(spec, rng));
    FAIL() << "build_overlay accepted a torus topology";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("build_kleinberg_overlay"), std::string::npos)
        << e.what();
  }
}

TEST(GraphBuilder, RejectsOversizedBuildsUpFront) {
  // Node ids and edge slots are u32. Each spec below fails its up-front
  // check before anything is sized by it (each reserve would ask for
  // gigabytes to exabytes), so the error is invalid_argument rather than
  // length_error or bad_alloc from an allocation.
  util::Rng rng(44);
  for (const std::size_t links : {std::numeric_limits<std::size_t>::max(), std::size_t{1} << 62}) {
    for (const double presence : {1.0, 0.5}) {
      for (const bool bidirectional : {false, true}) {
        const BuildSpec spec{.grid_size = 4096,
                             .long_links = links,
                             .presence = presence,
                             .bidirectional = bidirectional};
        EXPECT_THROW(static_cast<void>(build_overlay(spec, rng)), std::invalid_argument);
      }
    }
    EXPECT_THROW(static_cast<void>(build_kleinberg_overlay(64, links, 2.0, rng)),
                 std::invalid_argument);
  }
  // 2^20 nodes x (2 short + 4095 long) slots, or 2 + 2 x 2048 bidirectional,
  // is just past 2^32 - 1.
  EXPECT_THROW(static_cast<void>(build_overlay({.grid_size = 1u << 20, .long_links = 4095}, rng)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(build_overlay(
                   {.grid_size = 1u << 20, .long_links = 2048, .bidirectional = true}, rng)),
               std::invalid_argument);
  for (const double presence : {1.0, 0.5}) {
    const BuildSpec spec{.grid_size = std::uint64_t{1} << 33, .presence = presence};
    EXPECT_THROW(static_cast<void>(build_overlay(spec, rng)), std::invalid_argument);
  }
  EXPECT_THROW(static_cast<void>(build_kleinberg_overlay(1u << 17, 1, 2.0, rng)),
               std::invalid_argument);
}

TEST(GraphBuilder, BidirectionalAddsEveryReverseLink) {
  util::Rng rng(53);
  BuildSpec spec;
  spec.grid_size = 256;
  spec.long_links = 4;
  spec.bidirectional = true;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.long_neighbors(u)) {
      EXPECT_TRUE(g.has_link(v, u)) << u << " -> " << v << " lacks a reverse";
    }
  }
}

TEST(GraphBuilder, BidirectionalAddsNoDuplicates) {
  util::Rng rng(59);
  BuildSpec spec;
  spec.grid_size = 128;
  spec.long_links = 3;
  spec.bidirectional = true;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    const auto longs = g.long_neighbors(u);
    // A reverse link is added only when absent, so each (u, v) long pair
    // appears at most twice total only if the forward side was drawn twice.
    std::size_t reverse_added = 0;
    for (const NodeId v : longs) {
      if (g.has_link(v, u)) ++reverse_added;
    }
    EXPECT_EQ(reverse_added, longs.size());
  }
}

TEST(GraphBuilder, AggregateLinkLengthsFollowInverseLaw) {
  // The builder's empirical length distribution must match 1/d: the exact
  // check behind Figure 5's "ideal" curve.
  util::Rng rng(47);
  BuildSpec spec;
  spec.grid_size = 512;
  spec.long_links = 8;
  const OverlayGraph g = build_overlay(spec, rng);
  const auto lengths = g.long_link_lengths();
  std::vector<double> count(g.space().diameter() + 1, 0.0);
  for (const auto d : lengths) count[d] += 1.0;
  // Compare mass at d=1 vs d=16: ratio should be ~16 (both sides of ring).
  ASSERT_GT(count[16], 0.0);
  const double ratio = count[1] / count[16];
  EXPECT_GT(ratio, 16.0 * 0.7);
  EXPECT_LT(ratio, 16.0 * 1.4);
}

// ---------------------------------------------------------------------------
// Pool-parallel builder paths must be bit-identical to their serial twins.

void expect_graphs_identical(const OverlayGraph& got, const OverlayGraph& want,
                             const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.link_count(), want.link_count()) << label;
  ASSERT_EQ(got.edge_slots(), want.edge_slots()) << label;
  for (NodeId u = 0; u < got.size(); ++u) {
    ASSERT_EQ(got.position(u), want.position(u)) << label << " node " << u;
    ASSERT_EQ(got.short_degree(u), want.short_degree(u)) << label << " node " << u;
    ASSERT_EQ(got.edge_base(u), want.edge_base(u)) << label << " node " << u;
    ASSERT_EQ(got.out_degree(u), want.out_degree(u)) << label << " node " << u;
    const auto a = got.neighbors(u);
    const auto b = want.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << label << " node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << label << " node " << u << " link " << i;
    }
  }
}

/// One builder state with duplicate long links and missing reverses — the
/// corner cases make_bidirectional's serial/parallel equivalence hinges on.
GraphBuilder tricky_builder(std::uint64_t n, std::uint64_t seed) {
  GraphBuilder b(Space::ring(n));
  b.wire_short_links();
  util::Rng rng(seed);
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t links = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < links; ++k) {
      NodeId v = static_cast<NodeId>(rng.next_below(n));
      if (v == u) v = static_cast<NodeId>((u + 1) % n);
      b.add_long_link(u, v);  // duplicates allowed, as in sampling w/ replacement
    }
  }
  return b;
}

TEST(GraphBuilderParallel, FreezeMatchesSerial) {
  util::ThreadPool pool(4);
  GraphBuilder serial = tricky_builder(2048, 21);
  GraphBuilder parallel = tricky_builder(2048, 21);
  const OverlayGraph a = serial.freeze();
  const OverlayGraph b = parallel.freeze(pool);
  expect_graphs_identical(b, a, "freeze");
}

TEST(GraphBuilderParallel, MakeBidirectionalMatchesSerial) {
  util::ThreadPool pool(4);
  GraphBuilder serial = tricky_builder(2048, 22);
  GraphBuilder parallel = tricky_builder(2048, 22);
  serial.make_bidirectional();
  parallel.make_bidirectional(pool);
  const OverlayGraph a = serial.freeze();
  const OverlayGraph b = parallel.freeze(pool);
  expect_graphs_identical(b, a, "make_bidirectional");
}

TEST(GraphBuilderParallel, SmallBuildersFallBackToSerial) {
  util::ThreadPool pool(4);
  GraphBuilder serial = tricky_builder(64, 23);
  GraphBuilder parallel = tricky_builder(64, 23);
  serial.make_bidirectional();
  parallel.make_bidirectional(pool);  // below the parallel threshold
  expect_graphs_identical(parallel.freeze(pool), serial.freeze(), "small");
}

TEST(GraphBuilderParallel, BidirectionalBuildOverlayMatchesSerial) {
  BuildSpec spec;
  spec.grid_size = 4096;
  spec.long_links = 6;
  spec.bidirectional = true;
  util::Rng rng_a(24), rng_b(24);
  util::ThreadPool pool(4);
  const OverlayGraph a = build_overlay(spec, rng_a);
  const OverlayGraph b = build_overlay(spec, rng_b, pool);
  expect_graphs_identical(b, a, "build_overlay bidirectional");
}

/// tricky_builder(n, seed) after make_bidirectional, built without a
/// GraphBuilder: every node's slice (short links, long links, then the
/// missing reverses in ascending source order) and its short degree.
struct ReferenceAdjacency {
  std::vector<std::vector<NodeId>> slices;
  std::vector<std::size_t> short_degree;
};

ReferenceAdjacency tricky_reference(std::uint64_t n, std::uint64_t seed) {
  ReferenceAdjacency ref{std::vector<std::vector<NodeId>>(n), std::vector<std::size_t>(n)};
  for (NodeId u = 0; u < n; ++u) {
    ref.slices[u] = n == 2 ? std::vector<NodeId>{static_cast<NodeId>(1 - u)}
                           : std::vector<NodeId>{static_cast<NodeId>((u + 1) % n),
                                                 static_cast<NodeId>((u + n - 1) % n)};
    ref.short_degree[u] = ref.slices[u].size();
  }
  std::vector<std::pair<NodeId, NodeId>> long_links;
  util::Rng rng(seed);
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t links = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < links; ++k) {
      NodeId v = static_cast<NodeId>(rng.next_below(n));
      if (v == u) v = static_cast<NodeId>((u + 1) % n);
      ref.slices[u].push_back(v);
      long_links.emplace_back(u, v);
    }
  }
  const std::vector<std::vector<NodeId>> own = ref.slices;  // before any reverse
  for (const auto& [u, v] : long_links) {
    std::vector<NodeId>& slice = ref.slices[v];
    const bool known = std::find(own[v].begin(), own[v].end(), u) != own[v].end() ||
                       std::find(slice.begin() + static_cast<std::ptrdiff_t>(own[v].size()),
                                 slice.end(), u) != slice.end();
    if (!known) slice.push_back(u);
  }
  return ref;
}

TEST(GraphBuilder, CompactFreezeMatchesStandardAtBlockEdges) {
  // The freeze streams the runs in blocks of B nodes and releases their
  // pages behind each block; a slice read across a block edge, or a page
  // dropped too early, shows up as a node that differs from a reference
  // built without the runs, or as a compact node that differs from the
  // standard one. Random long links reach across the whole ring, so the
  // larger sizes encode escaped slots too.
  constexpr std::size_t B = detail::kFreezeBlockNodes;
  util::ThreadPool pool(3);
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, B - 1, B, B + 1, 2 * B + 1}) {
    const auto frozen = [n](util::ThreadPool* p, EdgeLayout layout) {
      GraphBuilder b = tricky_builder(n, 27);
      if (p != nullptr) {
        b.make_bidirectional(*p);
        return b.freeze(*p, layout);
      }
      b.make_bidirectional();
      return b.freeze(layout);
    };
    const OverlayGraph standard = frozen(nullptr, EdgeLayout::kStandard);
    const std::string label = "n = " + std::to_string(n);
    const ReferenceAdjacency ref = tricky_reference(n, 27);
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(standard.short_degree(u), ref.short_degree[u]) << label << " node " << u;
      const auto links = standard.neighbors(u);
      ASSERT_EQ(std::vector<NodeId>(links.begin(), links.end()), ref.slices[u])
          << label << " node " << u;
    }
    ASSERT_TRUE(frozen(nullptr, EdgeLayout::kCompact).compact());
    expect_graphs_identical(frozen(nullptr, EdgeLayout::kCompact), standard, label + " serial");
    expect_graphs_identical(frozen(&pool, EdgeLayout::kCompact), standard, label + " pooled");
    expect_graphs_identical(frozen(&pool, EdgeLayout::kStandard), standard,
                            label + " pooled standard");
  }
}

// ---------------------------------------------------------------------------
// The builder's append contract.

TEST(GraphBuilder, LinksMustBeAddedInNodeOrder) {
  GraphBuilder b(Space::ring(8));
  b.add_short_link(2, 3);
  EXPECT_THROW(b.add_short_link(1, 2), std::logic_error);
  b.add_long_link(3, 6);
  EXPECT_THROW(b.add_long_link(2, 5), std::logic_error);
  EXPECT_THROW(b.add_short_link(3, 4), std::logic_error);  // after 3's long link
  b.add_long_link(3, 7);
  b.add_long_link(5, 1);
  EXPECT_THROW(b.add_long_links(LinkTable(8, kInvalidNode), 1), std::logic_error);
  const OverlayGraph g = b.freeze();
  EXPECT_EQ(g.link_count(), 4u);
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(2).begin(), g.neighbors(2).end()),
            std::vector<NodeId>({3}));
  EXPECT_EQ(g.short_degree(2), 1u);
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(3).begin(), g.neighbors(3).end()),
            std::vector<NodeId>({6, 7}));
  EXPECT_EQ(g.short_degree(3), 0u);
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(5).begin(), g.neighbors(5).end()),
            std::vector<NodeId>({1}));
}

TEST(GraphBuilder, WireShortLinksMustComeFirst) {
  // The wiring writes the whole short run at once, so it refuses a builder
  // that already holds a link, and leaves that builder as it was.
  GraphBuilder shorts(Space::ring(8));
  shorts.add_short_link(0, 3);
  EXPECT_THROW(shorts.wire_short_links(), std::logic_error);
  GraphBuilder longs(Space::ring(8));
  longs.add_long_link(2, 6);
  EXPECT_THROW(longs.wire_short_links(), std::logic_error);
  EXPECT_EQ(shorts.freeze().link_count(), 1u);
  EXPECT_EQ(longs.freeze().link_count(), 1u);
  // After the wiring, later nodes may still append links in node order.
  GraphBuilder wired(Space::ring(8));
  wired.wire_short_links();
  EXPECT_THROW(wired.wire_short_links(), std::logic_error);
  wired.add_short_link(7, 3);
  EXPECT_EQ(short_slice(wired.freeze(), 7), (std::vector<NodeId>{0, 6, 3}));
}

TEST(GraphBuilder, NoLinkCanBeAddedAfterMakeBidirectional) {
  GraphBuilder b(Space::ring(8));
  b.wire_short_links();
  b.add_long_link(0, 4);
  b.make_bidirectional();
  try {
    b.add_long_link(7, 3);
    ADD_FAILURE() << "a long link was accepted after make_bidirectional";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("make_bidirectional"), std::string::npos) << e.what();
  }
  EXPECT_THROW(b.add_short_link(7, 6), std::logic_error);
  EXPECT_THROW(b.add_long_links(LinkTable(8, kInvalidNode), 1), std::logic_error);
}

TEST(GraphBuilder, SecondMakeBidirectionalAddsNothing) {
  util::ThreadPool pool(4);
  GraphBuilder once = tricky_builder(2048, 25);
  GraphBuilder twice = tricky_builder(2048, 25);
  once.make_bidirectional();
  twice.make_bidirectional();
  twice.make_bidirectional(pool);
  twice.make_bidirectional();
  expect_graphs_identical(twice.freeze(), once.freeze(), "second make_bidirectional");
}

TEST(GraphBuilder, HasLinkSeesShortLongAndReverseLinks) {
  GraphBuilder b(Space::ring(16));
  b.wire_short_links();
  b.add_long_link(3, 9);
  EXPECT_TRUE(b.has_link(3, 4));  // short
  EXPECT_TRUE(b.has_link(3, 9));  // long
  EXPECT_FALSE(b.has_link(9, 3));
  EXPECT_FALSE(b.has_link(3, 10));
  b.make_bidirectional();
  EXPECT_TRUE(b.has_link(9, 3));  // reverse
  EXPECT_FALSE(b.has_link(9, 4));
}

#if defined(__linux__)
/// The VmFlags of the /proc/self/smaps mapping that holds p ("" if none).
std::string vm_flags_of(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2 && line.find(':') > line.find(' ')) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return "";
}
#endif

TEST(GraphBuilder, LargeLinkTablesSitOnHugePageMappings) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads /proc/self/smaps";
#else
  constexpr std::size_t kProbe = std::size_t{2} << 20;
  void* probe = ::mmap(nullptr, kProbe, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(probe, MAP_FAILED);
  const int refused = ::madvise(probe, kProbe, MADV_HUGEPAGE);
  ::munmap(probe, kProbe);
  if (refused != 0) GTEST_SKIP() << "madvise(MADV_HUGEPAGE) is refused here";
  // 1 MiB is the smallest table that is mapped; its flags carry "hg".
  LinkTable table(util::NoFillHugePageAllocator<NodeId>::kMmapThreshold / sizeof(NodeId));
  table.front() = 1;
  const std::string flags = vm_flags_of(table.data());
  ASSERT_FALSE(flags.empty());
  EXPECT_NE((flags + " ").find(" hg "), std::string::npos) << flags;
#endif
}

TEST(GraphBuilder, LongLinkTableMatchesSingleAppends) {
  // Row u holds node u's draws; kInvalidNode marks a draw that made no link.
  const LinkTable table = {3, kInvalidNode, kInvalidNode, kInvalidNode, 5, 0,
                           1, 1,            kInvalidNode, 2,            4, 3};
  GraphBuilder single(Space::ring(6));
  single.wire_short_links();
  for (NodeId u = 0; u < 6; ++u) {
    for (std::size_t k = 0; k < 2; ++k) {
      if (table[2 * u + k] != kInvalidNode) single.add_long_link(u, table[2 * u + k]);
    }
  }
  GraphBuilder bulk(Space::ring(6));
  bulk.wire_short_links();
  EXPECT_THROW(bulk.add_long_links(table, 3), std::invalid_argument);
  bulk.add_long_links(table, 2);
  EXPECT_THROW(bulk.add_long_link(5, 0), std::logic_error);
  EXPECT_THROW(bulk.add_short_link(5, 0), std::logic_error);
  expect_graphs_identical(bulk.freeze(), single.freeze(), "long-link table");

  GraphBuilder bad(Space::ring(6));
  // 6 * 2^63 wraps to 0 entries.
  EXPECT_THROW(bad.add_long_links({}, std::size_t{1} << 63), std::invalid_argument);
  EXPECT_THROW(bad.add_long_links(LinkTable(6, 6), 1), std::out_of_range);
  bad.add_long_link(0, 1);  // the refused table left no long link behind
  EXPECT_EQ(bad.freeze().link_count(), 1u);
}

TEST(GraphBuilder, RejectsMoreNodesThanNodeIdsBeforeAllocating) {
  // The constructors size nothing per node, so even the largest accepted
  // space costs no memory until links arrive.
  constexpr std::uint64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  EXPECT_EQ(GraphBuilder(Space::ring(kMaxNodes)).size(), kMaxNodes);
  EXPECT_THROW(GraphBuilder(Space::ring(kMaxNodes + 1)), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space::ring(std::uint64_t{1} << 33)), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space::line(std::uint64_t{1} << 40)), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space::torus(1u << 17)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pinned graphs. Serial ≡ pooled alone would pass a change that alters both
// paths alike, so each build below is also checked against an FNV-1a
// fingerprint of every node's (degree, short degree, neighbours) taken from
// the reference builder. A sampler or make_bidirectional rewrite must keep
// every one of these graphs bit-identical.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fingerprint(const OverlayGraph& g) {
  std::uint64_t h = fnv1a(0xcbf29ce484222325ULL, g.size());
  for (NodeId u = 0; u < g.size(); ++u) {
    h = fnv1a(h, g.out_degree(u));
    h = fnv1a(h, g.short_degree(u));
    for (const NodeId v : g.neighbors(u)) h = fnv1a(h, v);
  }
  return h;
}

struct PinnedBuild {
  const char* label;
  BuildSpec spec;  // ignored when kleinberg_side != 0
  std::uint32_t kleinberg_side;
  std::uint64_t fingerprint;
};

OverlayGraph build_pinned(const PinnedBuild& p, util::ThreadPool* pool) {
  util::Rng rng(2002);
  if (p.kleinberg_side != 0) {
    return pool != nullptr ? build_kleinberg_overlay(p.kleinberg_side, 2, 2.0, rng, *pool)
                           : build_kleinberg_overlay(p.kleinberg_side, 2, 2.0, rng);
  }
  return pool != nullptr ? build_overlay(p.spec, rng, *pool) : build_overlay(p.spec, rng);
}

TEST(GraphBuilderPinned, BuildsMatchReferenceFingerprints) {
  using Mode = BuildSpec::SparseLinkMode;
  const BuildSpec ring{.grid_size = 4096, .long_links = 12, .bidirectional = true};
  auto with = [&](auto edit) {
    BuildSpec s = ring;
    edit(s);
    return s;
  };
  const PinnedBuild builds[] = {
      {"ring 2^12", ring, 0, 0x2b7489cebd27de58ULL},
      {"ring 2^12 compact", with([](BuildSpec& s) { s.layout = EdgeLayout::kCompact; }), 0,
       0x2b7489cebd27de58ULL},
      // perfbench's churn_replay graph.
      {"ring 2^16", with([](BuildSpec& s) { s.grid_size = 1u << 16; s.long_links = 16; }), 0,
       0x6d0bf2b679cf4552ULL},
      // The compact encoder across many node blocks and arena pages.
      {"ring 2^16 compact", with([](BuildSpec& s) {
         s.grid_size = 1u << 16;
         s.long_links = 16;
         s.layout = EdgeLayout::kCompact;
       }), 0, 0x6d0bf2b679cf4552ULL},
      {"odd ring", with([](BuildSpec& s) { s.grid_size = 3001; s.long_links = 7; }), 0,
       0xa90227a897b374aaULL},
      {"line", with([](BuildSpec& s) {
         s.grid_size = 3000;
         s.topology = Space::Kind::kLine;
         s.long_links = 6;
       }), 0, 0xaf30f5321eb69ac7ULL},
      {"presence 0.5 rejection", with([](BuildSpec& s) {
         s.presence = 0.5;
         s.long_links = 4;
         s.sparse_mode = Mode::kRejection;
       }), 0, 0xd08bfabbbc7d161cULL},
      {"presence 0.5 snap", with([](BuildSpec& s) {
         s.presence = 0.5;
         s.long_links = 4;
         s.sparse_mode = Mode::kSnap;
       }), 0, 0x4f71076454dc9a76ULL},
      // A sparse graph (positions, uneven degrees) in compact form.
      {"presence 0.5 snap compact", with([](BuildSpec& s) {
         s.presence = 0.5;
         s.long_links = 4;
         s.sparse_mode = Mode::kSnap;
         s.layout = EdgeLayout::kCompact;
       }), 0, 0x4f71076454dc9a76ULL},
      {"exponent 0", with([](BuildSpec& s) { s.exponent = 0.0; s.long_links = 4; }), 0,
       0x83cd7a5837e56927ULL},
      {"exponent 2", with([](BuildSpec& s) { s.exponent = 2.0; s.long_links = 4; }), 0,
       0x4b9a2175214497eeULL},
      {"base-b full", with([](BuildSpec& s) {
         s.grid_size = 2048;
         s.link_model = BuildSpec::LinkModel::kBaseBFull;
         s.base = 3;
       }), 0, 0x97bbf2720361659dULL},
      {"kleinberg 64", {}, 64, 0xf6d755bc1b6ca081ULL},
  };
  for (const PinnedBuild& p : builds) {
    EXPECT_EQ(fingerprint(build_pinned(p, nullptr)), p.fingerprint)
        << p.label << " serial";
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(fingerprint(build_pinned(p, &pool)), p.fingerprint)
          << p.label << " pooled, " << threads << " threads";
    }
  }
}

TEST(GraphBuilderPinned, LookupGraphMatchesReferenceFingerprint) {
  // perfbench's lookup graph. At 2^19 nodes it is the costliest pinned
  // build, so it runs serial and on one 2-thread pool only.
  const PinnedBuild lookup{"ring 2^19 compact",
                           {.grid_size = 1u << 19,
                            .long_links = 19,
                            .bidirectional = true,
                            .layout = EdgeLayout::kCompact},
                           0,
                           0x22b433713e7b8a5cULL};
  const OverlayGraph serial = build_pinned(lookup, nullptr);
  EXPECT_EQ(fingerprint(serial), lookup.fingerprint) << "serial";
  // Each compact header's escape count, which sizes the router's load
  // extent, is the node's escaped-slot count (none here saturates).
  for (NodeId u = 0; u < serial.size(); ++u) {
    const OverlayGraph::CompactHeader& h = serial.cheader(u);
    const std::size_t escaped = detail::count_escapes(serial.enc_stream(h), h.degree);
    ASSERT_EQ(h.escapes, std::min<std::size_t>(escaped, OverlayGraph::kEscapesSaturated))
        << "u=" << u;
  }
  util::ThreadPool pool(2);
  EXPECT_EQ(fingerprint(build_pinned(lookup, &pool)), lookup.fingerprint) << "2 threads";
}

TEST(GraphBuilderParallel, AnyPoolWidthMatchesSerialAcrossTransposeBlocks) {
  // make_bidirectional transposes in blocks of transpose_block_nodes(n)
  // nodes; pools narrower and wider than the block count, and a ragged last
  // block, must all give the serial graph.
  const std::size_t B = GraphBuilder::transpose_block_nodes(4096);
  for (const std::size_t n : {2 * B - 1, 3 * B + 1234}) {
    ASSERT_EQ(GraphBuilder::transpose_block_nodes(n), B);
    GraphBuilder serial = tricky_builder(n, 28);
    serial.make_bidirectional();
    const OverlayGraph want = serial.freeze();
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 16u}) {
      util::ThreadPool pool(threads);
      GraphBuilder pooled = tricky_builder(n, 28);
      pooled.make_bidirectional(pool);
      expect_graphs_identical(pooled.freeze(pool), want,
                              "n = " + std::to_string(n) + ", " + std::to_string(threads) +
                                  " threads");
    }
  }
  util::ThreadPool pool(16);
  util::Rng rng(2002);
  const BuildSpec ring{.grid_size = 4096, .long_links = 12, .bidirectional = true};
  EXPECT_EQ(fingerprint(build_overlay(ring, rng, pool)), 0x2b7489cebd27de58ULL);
}

TEST(GraphBuilder, TransposeBlockIsTheLeastPowerOfTwoCoveringTheSquareRoot) {
  // B is a power of two in [2^12, 2^16] with B² >= n, so the
  // (source block, target block) count table has at most ⌈√n⌉² entries.
  const auto block = [](std::uint64_t n) {
    return static_cast<std::uint64_t>(GraphBuilder::transpose_block_nodes(n));
  };
  EXPECT_EQ(block(2), 4096u);
  EXPECT_EQ(block(std::uint64_t{1} << 12), 4096u);
  EXPECT_EQ(block(std::uint64_t{1} << 24), 4096u);
  EXPECT_EQ(block((std::uint64_t{1} << 24) + 1), 8192u);
  EXPECT_EQ(block(std::numeric_limits<NodeId>::max()), 65536u);
  for (const std::uint64_t n : {std::uint64_t{2}, std::uint64_t{1} << 12,
                                (std::uint64_t{1} << 24) + 1, std::uint64_t{100'000'000},
                                std::uint64_t{std::numeric_limits<NodeId>::max()}}) {
    const std::uint64_t b = block(n);
    const std::uint64_t blocks = (n + b - 1) / b;
    const auto root = static_cast<std::uint64_t>(std::ceil(std::sqrt(static_cast<double>(n))));
    EXPECT_TRUE(std::has_single_bit(b)) << n;
    EXPECT_GE(b * b, n) << n;
    EXPECT_LE(blocks, root) << n;
  }
}

}  // namespace
}  // namespace p2p::graph
