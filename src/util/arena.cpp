#include "util/arena.h"

#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace p2p::util {

namespace {
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

#if defined(__SANITIZE_ADDRESS__)
/// Poisoned page past every allocator block, so a read just past a block
/// that ends on a mapping boundary lands on it rather than on the next map.
constexpr std::size_t kGuardBytes = 4096;
#else
constexpr std::size_t kGuardBytes = 0;
#endif

std::size_t block_mapping_bytes(std::size_t bytes) noexcept {
  return round_up_huge(bytes + kGuardBytes);
}
}  // namespace

std::size_t round_up_huge(std::size_t bytes) noexcept {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

void* map_huge(std::size_t bytes, bool huge_pages) noexcept {
#if defined(__linux__)
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  // THP hint only; a kernel with THP disabled leaves the mapping on 4 KiB
  // pages, which is the documented graceful fallback.
  if (huge_pages) (void)::madvise(p, bytes, MADV_HUGEPAGE);
  return p;
#else
  (void)bytes;
  (void)huge_pages;
  return nullptr;
#endif
}

void unmap_huge(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  if (p != nullptr) ::munmap(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void* map_block(std::size_t bytes) noexcept {
  void* p = map_huge(block_mapping_bytes(bytes));
#if defined(__SANITIZE_ADDRESS__)
  if (p != nullptr) {
    __asan_poison_memory_region(static_cast<char*>(p) + bytes,
                                block_mapping_bytes(bytes) - bytes);
  }
#endif
  return p;
}

void unmap_block(void* p, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  // The next mapping at this address must not inherit the poison.
  if (p != nullptr) __asan_unpoison_memory_region(p, block_mapping_bytes(bytes));
#endif
  unmap_huge(p, block_mapping_bytes(bytes));
}

void* release_pages(void* begin, void* end) noexcept {
#if defined(__linux__)
  static const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
#else
  constexpr std::uintptr_t page = 4096;
#endif
  const auto lo = (reinterpret_cast<std::uintptr_t>(begin) + page - 1) & ~(page - 1);
  const auto hi = reinterpret_cast<std::uintptr_t>(end) & ~(page - 1);
  if (lo >= hi) return begin;
#if defined(__linux__)
  (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
#endif
#if defined(__SANITIZE_ADDRESS__)
  __asan_poison_memory_region(reinterpret_cast<void*>(lo), hi - lo);
#endif
  return reinterpret_cast<void*>(hi);
}

Arena::Arena(std::size_t chunk_bytes)
    : chunk_bytes_(round_up_huge(chunk_bytes == 0 ? kDefaultChunkBytes
                                                  : chunk_bytes)) {}

Arena::~Arena() { release(); }

Arena::Arena(Arena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      active_(other.active_),
      offset_(other.offset_),
      chunk_bytes_(other.chunk_bytes_),
      allocated_(other.allocated_),
      reserved_(other.reserved_) {
  other.chunks_.clear();
  other.active_ = 0;
  other.offset_ = 0;
  other.allocated_ = 0;
  other.reserved_ = 0;
}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    release();
    chunks_ = std::move(other.chunks_);
    active_ = other.active_;
    offset_ = other.offset_;
    chunk_bytes_ = other.chunk_bytes_;
    allocated_ = other.allocated_;
    reserved_ = other.reserved_;
    other.chunks_.clear();
    other.active_ = 0;
    other.offset_ = 0;
    other.allocated_ = 0;
    other.reserved_ = 0;
  }
  return *this;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= c.size) {
        offset_ = aligned + bytes;
        allocated_ += bytes;
        return c.base + aligned;
      }
      // Exhausted; a retained chunk from before reset() may still fit.
      ++active_;
      offset_ = 0;
      continue;
    }
    const std::size_t want =
        bytes + align > chunk_bytes_ ? bytes + align : chunk_bytes_;
    chunks_.push_back(make_chunk(want));
    // active_ now indexes the fresh chunk; loop retries the bump.
  }
}

void Arena::reset() noexcept {
  active_ = 0;
  offset_ = 0;
  allocated_ = 0;
}

Arena::Chunk Arena::make_chunk(std::size_t bytes) {
  bytes = round_up_huge(bytes);
  Chunk c;
  c.size = bytes;
  if (void* p = map_huge(bytes)) {
    c.base = static_cast<std::byte*>(p);
    c.mapped = true;
  } else {
    // Non-Linux or mmap exhaustion: plain heap chunk (operator new throws
    // bad_alloc if that also fails).
    c.base = static_cast<std::byte*>(::operator new(bytes));
    c.mapped = false;
  }
  reserved_ += bytes;
  return c;
}

void Arena::release() noexcept {
  for (Chunk& c : chunks_) {
    if (c.base == nullptr) continue;
    if (c.mapped) {
      unmap_huge(c.base, c.size);
    } else {
      ::operator delete(c.base);
    }
  }
  chunks_.clear();
  active_ = 0;
  offset_ = 0;
  allocated_ = 0;
  reserved_ = 0;
}

}  // namespace p2p::util
