// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in this library takes an explicit `Rng&` so that
// experiments are reproducible bit-for-bit given a seed. The generator is
// xoshiro256++ (Blackman & Vigna), seeded via splitmix64 so that small seeds
// (0, 1, 2, ...) still yield well-mixed, independent-looking streams.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace p2p::util {

/// Mixes a 64-bit value into a well-distributed 64-bit value.
///
/// This is the splitmix64 finalizer; it is used both for seeding Rng and as a
/// cheap stateless hash in tests.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256++ pseudo-random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// used with <random> distributions, but the convenience members below avoid
/// the libstdc++/libc++ portability trap: std::uniform_int_distribution is
/// not guaranteed to produce the same stream across standard libraries,
/// whereas Rng's own helpers are fully specified here.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit constexpr Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  /// Re-initializes the stream from `seed`.
  constexpr void reseed(std::uint64_t seed) noexcept {
    // splitmix64 recurrence guarantees a non-zero, well-mixed state even for
    // adversarial seeds (e.g. 0).
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      word = splitmix64(x);
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Returns the next 64 random bits.
  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  ///
  /// Uses Lemire's multiply-shift rejection method: unbiased and fast.
  [[nodiscard]] constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    __extension__ using uint128 = unsigned __int128;
    std::uint64_t x = (*this)();
    uint128 m = static_cast<uint128>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<uint128>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  [[nodiscard]] constexpr std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  [[nodiscard]] constexpr double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
  [[nodiscard]] constexpr bool next_bool(double p) noexcept {
    return next_double() < p;
  }

  /// Derives an independent child stream; used to fan experiments out across
  /// seeds/threads without correlated streams.
  [[nodiscard]] constexpr Rng split() noexcept {
    return Rng(splitmix64((*this)()) ^ 0xa5a5a5a5a5a5a5a5ULL);
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Deterministic substream `index` of the family identified by `base`: the
/// returned generator depends only on (base, index), never on which thread
/// draws from it or how many sibling substreams exist. This is the one
/// derivation shared by the experiment driver (per-trial streams), the batch
/// route pipeline (per-query streams) and the parallel graph build (per-node
/// streams), so interleaved and sequential executions stay bit-identical.
[[nodiscard]] constexpr Rng substream(std::uint64_t base, std::uint64_t index) noexcept {
  return Rng(splitmix64(base ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
}

/// Samples a Poisson(mean) variate by inversion (mean expected to be small,
/// e.g. the per-node link count ℓ ≤ ~40 used throughout the paper).
[[nodiscard]] int poisson_sample(Rng& rng, double mean) noexcept;

inline int poisson_sample(Rng& rng, double mean) noexcept {
  if (mean <= 0.0) return 0;
  // Inversion by sequential search; numerically fine for mean <= ~700.
  double p = 1.0;
  int k = 0;
  // exp(-mean) as a product of std::exp factors over chunks of at most 30
  // (a Taylor series here would cancel catastrophically past m ~ 16).
  double m = mean;
  double bound = 1.0;
  // Stop once exp(-mean) has underflowed: past ~1e17, m -= 30 no longer
  // changes m, and an infinite mean never shrinks at all.
  while (m > 30.0 && bound > 0.0) {
    bound *= std::exp(-30.0);
    m -= 30.0;
  }
  bound *= std::exp(-m);
  const double u = rng.next_double();
  double cdf = bound;
  while (u > cdf && k < 10'000) {
    ++k;
    p *= mean / k;
    cdf += bound * p;
  }
  return k;
}

}  // namespace p2p::util
