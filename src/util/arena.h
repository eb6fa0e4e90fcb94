// Bump allocation over transparent-huge-page-backed chunks.
//
// The frozen overlay's compact representation (headers + encoded edge
// streams) and the FailureView bitsets are large, long-lived, append-once
// arrays: the ideal tenants for 2 MiB pages. `Arena` grabs anonymous
// mmap chunks rounded to the huge-page size, hints MADV_HUGEPAGE (failure
// is harmless — the mapping simply stays on 4 KiB pages), and bump-allocates
// from them. `reset()` rewinds without unmapping so a rebuilt graph reuses
// the same physical pages.
//
// `HugePageAllocator<T>` applies the same policy to std::vector storage
// (FailureView bitsets / alive-byte sidebands): allocations of >= 1 MiB go
// through mmap + MADV_HUGEPAGE, smaller ones through operator new (its
// align_val_t form for an over-aligned T).
// `NoFillHugePageAllocator<T>` does the same for buffers whose every slot is
// written before it is read (GraphBuilder's link runs): its resize() leaves
// trivial elements unwritten.
//
// Under AddressSanitizer a mapped block carries one extra 4 KiB page, and
// every byte past the requested ones is poisoned, so a read past the end of
// a vector's storage is reported as it would be on the heap; release_pages
// poisons the pages it drops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace p2p::util {

/// Rounds `bytes` up to a multiple of the 2 MiB huge-page size.
[[nodiscard]] std::size_t round_up_huge(std::size_t bytes) noexcept;

/// Anonymous private mapping of `bytes` (caller pre-rounds via
/// round_up_huge) with the MADV_HUGEPAGE hint applied; nullptr when mmap is
/// unavailable (non-Linux) or fails. The madvise result is ignored — a
/// kernel without THP still returns a perfectly usable 4 KiB-page mapping.
/// `huge_pages = false` skips the hint (measurement / fallback testing).
[[nodiscard]] void* map_huge(std::size_t bytes, bool huge_pages = true) noexcept;

/// Releases a map_huge mapping (no-op on nullptr).
void unmap_huge(void* p, std::size_t bytes) noexcept;

/// Mapping of at least `bytes` for one allocator block: map_huge of the
/// rounded size (plus a poisoned guard page under ASan), or nullptr.
[[nodiscard]] void* map_block(std::size_t bytes) noexcept;

/// Releases a map_block mapping of the same `bytes`.
void unmap_block(void* p, std::size_t bytes) noexcept;

/// Hands the physical pages lying wholly inside [begin, end) back to the OS
/// (MADV_DONTNEED on Linux, a no-op elsewhere) for memory the caller will
/// never read again: the bytes of the range outside those pages are
/// untouched, and the dropped ones read back unspecified (under ASan, any
/// access to them is reported until the block is freed). Returns the end of
/// the dropped pages, or `begin` when no whole page fits, so a buffer
/// consumed front to back is released by calling it again from the returned
/// address each time its consumed prefix grows.
void* release_pages(void* begin, void* end) noexcept;

/// Chunked bump allocator. Not thread-safe; allocations are freed only in
/// bulk (destructor or reset). Alignment up to the chunk granularity is
/// honoured per allocation.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{8} << 20;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();

  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two). Oversized
  /// requests get a dedicated chunk. Never returns nullptr (throws
  /// std::bad_alloc on genuine exhaustion).
  [[nodiscard]] void* allocate(std::size_t bytes,
                               std::size_t align = alignof(std::max_align_t));

  /// Typed convenience: uninitialized storage for `count` Ts.
  template <class T>
  [[nodiscard]] T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk without unmapping — the next allocation generation
  /// reuses the already-faulted pages.
  void reset() noexcept;

  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return allocated_;
  }
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return reserved_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

 private:
  struct Chunk {
    std::byte* base = nullptr;
    std::size_t size = 0;
    bool mapped = false;  ///< true: map_huge; false: operator-new fallback
  };

  Chunk make_chunk(std::size_t bytes);
  void release() noexcept;

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunk currently bumped from
  std::size_t offset_ = 0;  ///< bump offset within chunks_[active_]
  std::size_t chunk_bytes_ = kDefaultChunkBytes;
  std::size_t allocated_ = 0;
  std::size_t reserved_ = 0;
};

/// std allocator routing large blocks through map_huge. Stateless, so all
/// instances compare equal and container copy/move semantics are unchanged;
/// propagate_on_container_copy_assignment stays false (the std default),
/// which keeps vector copy-assignment reusing existing capacity — the
/// ViewPublisher snapshot pool depends on that reuse.
template <class T>
struct HugePageAllocator {
  using value_type = T;

  /// Blocks at least this large go through mmap; smaller ones through
  /// operator new. deallocate branches on the same computed size, so the
  /// two paths can never be mismatched.
  static constexpr std::size_t kMmapThreshold = std::size_t{1} << 20;

  /// True when plain operator new does not guarantee T's alignment (an
  /// alignas(64) NodeHeader, say): smaller blocks then take the align_val_t
  /// overloads. A mapped block starts on a page, which covers any T.
  static constexpr bool kOverAligned = alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__;

  HugePageAllocator() noexcept = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
    if (bytes >= kMmapThreshold) {
      // A failed anonymous mmap is genuine address-space exhaustion; do not
      // fall back to operator new — deallocate would munmap a heap pointer.
      if (void* p = map_block(bytes)) return static_cast<T*>(p);
      throw std::bad_alloc();
    }
#endif
    if constexpr (kOverAligned) {
      return static_cast<T*>(::operator new(bytes, std::align_val_t{alignof(T)}));
    } else {
      return static_cast<T*>(::operator new(bytes));
    }
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
    if (bytes >= kMmapThreshold) {
      unmap_block(p, bytes);
      return;
    }
#endif
    if constexpr (kOverAligned) {
      ::operator delete(p, std::align_val_t{alignof(T)});
    } else {
      ::operator delete(p);
    }
  }
};

template <class T, class U>
bool operator==(const HugePageAllocator<T>&,
                const HugePageAllocator<U>&) noexcept {
  return true;
}
template <class T, class U>
bool operator!=(const HugePageAllocator<T>&,
                const HugePageAllocator<U>&) noexcept {
  return false;
}

/// Vector whose backing store is huge-page-mapped once it crosses 1 MiB.
template <class T>
using HpVector = std::vector<T, HugePageAllocator<T>>;

/// HugePageAllocator, except that a value-less construct default-initialises,
/// so resize() leaves trivial elements unwritten: no fill pass, and a block's
/// pages are first touched by whichever thread writes them. (HugePageAllocator
/// itself value-initialises; FailureView's bitsets rely on that.)
template <class T>
struct NoFillHugePageAllocator : HugePageAllocator<T> {
  NoFillHugePageAllocator() noexcept = default;
  template <class U>
  NoFillHugePageAllocator(const NoFillHugePageAllocator<U>&) noexcept {}  // NOLINT

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// HpVector whose resize() does not fill (see NoFillHugePageAllocator).
template <class T>
using NoFillHpVector = std::vector<T, NoFillHugePageAllocator<T>>;

}  // namespace p2p::util
