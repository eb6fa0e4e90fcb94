// Key hashing: K → V, the resource embedding of §2.
//
// "We assume a hash function h : K → V such that resource r maps to the
// point v = h(key(r)) in a metric space" — implemented as FNV-1a over the
// key bytes followed by a splitmix64 finalizer (so short, similar keys still
// spread evenly over the grid), reduced modulo the grid size.
#pragma once

#include <cstdint>
#include <string_view>

#include "metric/space.h"

namespace p2p::dht {

/// 64-bit FNV-1a of arbitrary bytes.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Well-mixed 64-bit digest of a key (FNV-1a + splitmix64 finalizer).
[[nodiscard]] std::uint64_t key_digest(std::string_view key) noexcept;

/// Metric-generic embedding: the point a key hashes to in `space` — line,
/// ring, or flattened torus alike (the digest reduced over the point count;
/// replica placement interprets the point under the space's own metric).
/// This is the mapping the replicated object store (src/store) places by.
[[nodiscard]] metric::Point point_for_key(std::string_view key,
                                          const metric::Space& space);

}  // namespace p2p::dht
