// Pins util::Arena — the huge-page bump allocator under the compact overlay
// representation — and the HugePageAllocator vector policy:
//  * round_up_huge / map_huge round-trips (with and without the THP hint);
//  * alignment, accounting (allocated/reserved/chunk_count), oversized
//    dedicated chunks, cross-chunk writes;
//  * reset() rewinds accounting but retains chunks, and the next generation
//    reuses them without growing the reservation;
//  * move construction/assignment transfer ownership and leave the source
//    empty;
//  * HpVector storage works on both sides of the 1 MiB mmap threshold, and
//    so does NoFillHpVector's (blocks of threshold - 1, threshold and
//    threshold + 1 bytes, and push_back growth across the threshold);
//  * an over-aligned element type keeps its alignment on both sides;
//  * release_pages drops only the whole pages inside its range and resumes
//    where the previous call stopped;
//  * under AddressSanitizer, a read just past a mapped block or of a
//    released page is reported (death tests, skipped in other builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/arena.h"

#if defined(__linux__)
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace p2p::util {
namespace {

constexpr std::size_t kHuge = std::size_t{2} << 20;

TEST(Arena, RoundUpHuge) {
  EXPECT_EQ(round_up_huge(1), kHuge);
  EXPECT_EQ(round_up_huge(kHuge - 1), kHuge);
  EXPECT_EQ(round_up_huge(kHuge), kHuge);
  EXPECT_EQ(round_up_huge(kHuge + 1), 2 * kHuge);
  EXPECT_EQ(round_up_huge(3 * kHuge), 3 * kHuge);
}

TEST(Arena, MapHugeRoundTrip) {
  for (const bool hint : {true, false}) {
    void* p = map_huge(kHuge, hint);
#if defined(__linux__)
    ASSERT_NE(p, nullptr) << "hint=" << hint;
    // Touch first and last byte: the mapping must be readable/writable
    // whether or not the kernel honoured the THP hint.
    auto* bytes = static_cast<unsigned char*>(p);
    bytes[0] = 0xAB;
    bytes[kHuge - 1] = 0xCD;
    EXPECT_EQ(bytes[0], 0xAB);
    EXPECT_EQ(bytes[kHuge - 1], 0xCD);
#endif
    unmap_huge(p, kHuge);
  }
  unmap_huge(nullptr, kHuge);  // explicit no-op contract
}

TEST(Arena, AlignmentAndAccounting) {
  Arena arena;
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  EXPECT_EQ(arena.chunk_count(), 0u);

  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(64, 64);
  void* c = arena.allocate(1, 4096);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 4096, 0u);
  EXPECT_EQ(arena.allocated_bytes(), 3u + 64u + 1u);
  EXPECT_GE(arena.reserved_bytes(), arena.allocated_bytes());
  EXPECT_EQ(arena.chunk_count(), 1u);

  auto* words = arena.allocate_array<std::uint64_t>(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words) % alignof(std::uint64_t), 0u);
  for (std::size_t i = 0; i < 1000; ++i) words[i] = i * i;
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(words[i], i * i) << i;

  // Zero-byte requests still return distinct usable storage.
  void* z1 = arena.allocate(0);
  void* z2 = arena.allocate(0);
  EXPECT_NE(z1, z2);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena arena(kHuge);  // small chunks so the oversize path triggers
  void* small = arena.allocate(16);
  ASSERT_NE(small, nullptr);
  const std::size_t chunks_before = arena.chunk_count();
  const std::size_t big = 5 * kHuge;
  auto* p = static_cast<unsigned char*>(arena.allocate(big, 64));
  ASSERT_NE(p, nullptr);
  EXPECT_GT(arena.chunk_count(), chunks_before);
  std::memset(p, 0x5A, big);
  EXPECT_EQ(p[0], 0x5A);
  EXPECT_EQ(p[big - 1], 0x5A);
}

TEST(Arena, CrossChunkWrites) {
  Arena arena(kHuge);
  std::vector<std::uint32_t*> blocks;
  constexpr std::size_t kPerBlock = 300000;  // ~1.2 MB, forces chunk turnover
  for (int i = 0; i < 8; ++i) {
    auto* block = arena.allocate_array<std::uint32_t>(kPerBlock);
    for (std::size_t j = 0; j < kPerBlock; ++j) {
      block[j] = static_cast<std::uint32_t>(i * 31 + j);
    }
    blocks.push_back(block);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  for (int i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < kPerBlock; j += 997) {
      ASSERT_EQ(blocks[i][j], static_cast<std::uint32_t>(i * 31 + j))
          << "block " << i << " word " << j;
    }
  }
}

TEST(Arena, ResetRetainsChunksForReuse) {
  Arena arena(kHuge);
  for (int i = 0; i < 4; ++i) (void)arena.allocate(kHuge / 2);
  const std::size_t reserved = arena.reserved_bytes();
  const std::size_t chunks = arena.chunk_count();
  ASSERT_GT(chunks, 1u);

  arena.reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);

  // The next generation fits in the retained chunks: no new reservation.
  for (int i = 0; i < 4; ++i) (void)arena.allocate(kHuge / 2);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, MoveTransfersOwnership) {
  Arena a(kHuge);
  auto* data = a.allocate_array<std::uint64_t>(4096);
  for (std::size_t i = 0; i < 4096; ++i) data[i] = i ^ 0xDEADBEEF;
  const std::size_t reserved = a.reserved_bytes();

  Arena b(std::move(a));
  EXPECT_EQ(a.chunk_count(), 0u);
  EXPECT_EQ(a.reserved_bytes(), 0u);
  EXPECT_EQ(b.reserved_bytes(), reserved);
  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(data[i], i ^ 0xDEADBEEF) << i;  // storage survived the move
  }

  Arena c;
  (void)c.allocate(128);
  c = std::move(b);
  EXPECT_EQ(b.chunk_count(), 0u);
  EXPECT_EQ(c.reserved_bytes(), reserved);
  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(data[i], i ^ 0xDEADBEEF) << i;
  }
}

TEST(HugePageAllocator, SmallAndLargeBlocks) {
  // Below the threshold: plain operator new path.
  HpVector<std::uint32_t> small;
  for (std::uint32_t i = 0; i < 1000; ++i) small.push_back(i);
  for (std::uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(small[i], i);

  // Above the threshold: the mmap path (2 MiB of u64s).
  constexpr std::size_t kBig = (std::size_t{2} << 20) / sizeof(std::uint64_t);
  HpVector<std::uint64_t> big(kBig);
  big.front() = 1;
  big.back() = 2;
  big[kBig / 2] = 3;
  EXPECT_EQ(big.front(), 1u);
  EXPECT_EQ(big.back(), 2u);
  EXPECT_EQ(big[kBig / 2], 3u);

  // Growth across the threshold reallocates without losing contents.
  HpVector<std::uint64_t> grow;
  for (std::size_t i = 0; i < kBig + 17; ++i) grow.push_back(i);
  for (std::size_t i = 0; i < grow.size(); i += 4099) ASSERT_EQ(grow[i], i);

  // Copies compare equal through the stateless allocator.
  HpVector<std::uint64_t> copy = big;
  EXPECT_EQ(copy.size(), big.size());
  EXPECT_EQ(copy.front(), 1u);
  EXPECT_TRUE(HugePageAllocator<std::uint64_t>() ==
              HugePageAllocator<std::uint32_t>());
  EXPECT_FALSE(HugePageAllocator<std::uint64_t>() !=
               HugePageAllocator<std::uint32_t>());
}

TEST(HugePageAllocator, OverAlignedElementsKeepTheirAlignment) {
  // A cache-line element like OverlayGraph::NodeHeader, which the router
  // reads with aligned 64-byte loads. Plain operator new only guarantees 16
  // bytes, so blocks below the threshold must come from the align_val_t
  // overloads; mapped blocks start on a page.
  struct alignas(64) Line {
    std::uint32_t words[16];
  };
  constexpr std::size_t kThreshold = HugePageAllocator<Line>::kMmapThreshold;
  std::vector<HpVector<Line>> blocks;
  // Many small blocks, interleaved with odd-sized heap blocks, so a 16-byte
  // aligned allocator would hand out a misaligned one; then blocks on both
  // sides of the threshold.
  std::vector<std::vector<char>> spacers;
  for (std::size_t lines = 1; lines <= 40; ++lines) {
    spacers.emplace_back(lines * 8 + 1);
    blocks.emplace_back(lines);
  }
  for (const std::size_t bytes : {kThreshold - sizeof(Line), kThreshold, kThreshold + sizeof(Line)}) {
    blocks.emplace_back(bytes / sizeof(Line));
  }
  for (HpVector<Line>& b : blocks) {
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % alignof(Line), 0u)
        << b.size() << " lines";
    b.back().words[15] = static_cast<std::uint32_t>(b.size());
    EXPECT_EQ(b.back().words[15], b.size());
  }
}

TEST(NoFillHugePageAllocator, BlocksAroundTheThresholdRoundTrip) {
  constexpr std::size_t kThreshold = NoFillHugePageAllocator<std::uint8_t>::kMmapThreshold;
  for (const std::size_t bytes : {kThreshold - 1, kThreshold, kThreshold + 1}) {
    NoFillHpVector<std::uint8_t> v(bytes);
    for (std::size_t i = 0; i < bytes; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 3);
    for (std::size_t i = 0; i < bytes; ++i) {
      ASSERT_EQ(v[i], static_cast<std::uint8_t>(i * 7 + 3)) << bytes << " bytes, index " << i;
    }
    NoFillHpVector<std::uint8_t> moved = std::move(v);
    EXPECT_EQ(moved.size(), bytes);
    EXPECT_EQ(moved.back(), static_cast<std::uint8_t>((bytes - 1) * 7 + 3));
  }
}

TEST(NoFillHugePageAllocator, PushBackAcrossTheThresholdKeepsContents) {
  // GraphBuilder's runs grow by push_back in base-b and torus builds; the
  // reallocation that crosses 1 MiB moves them from the heap to a mapping.
  constexpr std::size_t kWords =
      NoFillHugePageAllocator<std::uint32_t>::kMmapThreshold / sizeof(std::uint32_t);
  NoFillHpVector<std::uint32_t> grow;
  for (std::uint32_t i = 0; i < 3 * kWords + 5; ++i) grow.push_back(i ^ 0x5A5Au);
  ASSERT_GE(grow.capacity() * sizeof(std::uint32_t),
            NoFillHugePageAllocator<std::uint32_t>::kMmapThreshold);
  for (std::uint32_t i = 0; i < grow.size(); ++i) ASSERT_EQ(grow[i], i ^ 0x5A5Au) << i;
  // A resize() past the end leaves the new slots to the caller; the old
  // ones survive it.
  grow.resize(grow.size() + 100);
  for (std::uint32_t i = 0; i < 3 * kWords + 5; i += 997) ASSERT_EQ(grow[i], i ^ 0x5A5Au) << i;
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

/// Reads *p so that the compiler cannot drop the load.
std::uint32_t read_word(const std::uint32_t* p) {
  return *static_cast<const volatile std::uint32_t*>(p);
}

TEST(HugePageAllocatorDeathTest, ReadPastAMappedBlockIsReported) {
  if (!kAsan) GTEST_SKIP() << "needs AddressSanitizer";
  // 2 MiB exactly: the block ends on a huge-page boundary, so only the
  // guard page lies past it.
  constexpr std::size_t kWords = (std::size_t{2} << 20) / sizeof(std::uint32_t);
  for (const std::size_t words : {kWords, kWords + 3}) {
    NoFillHpVector<std::uint32_t> v(words);
    v.back() = 7;
    EXPECT_EQ(read_word(v.data() + words - 1), 7u);
    EXPECT_DEATH((void)read_word(v.data() + words), "AddressSanitizer") << words << " words";
    HpVector<std::uint32_t> filled(words);
    EXPECT_DEATH((void)read_word(filled.data() + words), "AddressSanitizer") << words << " words";
  }
}

TEST(ReleasePagesDeathTest, ReadOfAReleasedPageIsReported) {
  if (!kAsan) GTEST_SKIP() << "needs AddressSanitizer";
  NoFillHpVector<std::uint32_t> v((std::size_t{4} << 20) / sizeof(std::uint32_t));
  std::fill(v.begin(), v.end(), 1u);
  std::uint32_t* const mid = v.data() + v.size() / 2;
  ASSERT_NE(release_pages(v.data(), mid), static_cast<void*>(v.data()));
  EXPECT_EQ(read_word(mid), 1u);  // the range's end is not dropped
  EXPECT_DEATH((void)read_word(mid - 1), "AddressSanitizer");
  EXPECT_DEATH((void)read_word(v.data()), "AddressSanitizer");
}

TEST(ReleasePages, DropsOnlyWholePagesInsideTheRange) {
#if defined(__linux__)
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
#else
  constexpr std::size_t page = 4096;
#endif
  std::vector<unsigned char> storage(6 * page);
  const auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
  unsigned char* const base = storage.data() + ((page - addr % page) % page);
  const std::size_t bytes = 5 * page;  // base is page-aligned, inside storage
  std::memset(base, 0xAB, bytes);
  const auto untouched = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (base[i] != 0xAB) return false;
    }
    return true;
  };

  // Empty and sub-page ranges, and one straddling a page boundary without
  // covering a whole page, drop nothing and hand back their begin.
  EXPECT_EQ(release_pages(base, base), base);
  EXPECT_EQ(release_pages(base + 10, base + page - 10), base + 10);
  EXPECT_EQ(release_pages(base + page / 2, base + page + page / 2), base + page / 2);
  EXPECT_EQ(release_pages(base + 3 * page, base + 2 * page), base + 3 * page);
  EXPECT_TRUE(untouched(0, bytes));

  // Pages 1 and 2 lie wholly inside; the partial pages 0 and 3 stay.
  void* const resume = release_pages(base + 100, base + 3 * page + 50);
  EXPECT_EQ(resume, base + 3 * page);
  EXPECT_TRUE(untouched(0, page));
  EXPECT_TRUE(untouched(3 * page, bytes));
  // Dropped anonymous pages read back zero, which shows they were released;
  // under ASan they are poisoned instead, and must not be read.
  const auto dropped = [&](std::size_t i) {
#if defined(__SANITIZE_ADDRESS__)
    return __asan_address_is_poisoned(base + i) != 0;
#elif defined(__linux__)
    return base[i] == 0;
#else
    (void)i;
    return true;
#endif
  };
  EXPECT_TRUE(dropped(page));
  EXPECT_TRUE(dropped(3 * page - 1));

  // Resuming from the returned address takes page 3 once it is covered.
  EXPECT_EQ(release_pages(resume, base + 4 * page + 1), base + 4 * page);
  EXPECT_TRUE(untouched(4 * page, bytes));
  EXPECT_TRUE(dropped(3 * page));
  EXPECT_TRUE(dropped(4 * page - 1));
}

}  // namespace
}  // namespace p2p::util
