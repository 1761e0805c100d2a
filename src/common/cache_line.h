// Cache-line layout helpers for state that several workers write at once.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace genclus {

/// Cache-line size assumed by per-block state that workers write
/// concurrently: such state is padded or aligned to whole lines so two
/// blocks never share one (see ForEachFixedGrainBlock).
inline constexpr size_t kCacheLineBytes = 64;

/// Allocates whole cache lines: every buffer starts on a line boundary and
/// its size is rounded up to a multiple of kCacheLineBytes, so no other
/// allocation shares a line with it.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        LineBytes(n), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, LineBytes(n), std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }

 private:
  static size_t LineBytes(size_t n) {
    return (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
           kCacheLineBytes;
  }
};

/// A vector whose elements occupy cache lines of their own.
template <typename T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace genclus
