#include "dht/hash.h"

#include "util/rng.h"

namespace p2p::dht {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

std::uint64_t key_digest(std::string_view key) noexcept {
  return util::splitmix64(fnv1a64(key));
}

metric::Point point_for_key(std::string_view key, const metric::Space& space) {
  return static_cast<metric::Point>(key_digest(key) % space.size());
}

}  // namespace p2p::dht
