// Cache-line-aligned limb storage for the Montgomery kernels.
//
// The AVX-512 IFMA engine moves residues 64 bytes (eight limbs) at a time,
// and its radix-52 widths are multiples of eight limbs, so a buffer that
// starts on a cache line keeps every one of those accesses inside a single
// line. std::vector's default allocator only promises 16 bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace pisa::bn {

inline constexpr std::size_t kCacheLineBytes = 64;

template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// A limb vector whose data() starts on a cache line.
using AlignedLimbs = std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>>;

}  // namespace pisa::bn
