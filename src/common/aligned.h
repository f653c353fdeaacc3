// Aligned allocation support for SIMD-hot arrays.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/types.h"

namespace sarbp {

/// Minimal C++17 aligned allocator. All hot arrays (pulse samples, image
/// tiles, ASR tables) are allocated with 64-byte alignment so that AVX-512
/// loads/stores never split cache lines. Not by aligned `operator new`:
/// glibc serves that from a request of the size plus the alignment plus a
/// minimum chunk, so a freed image's hole never fits the next image of its
/// size and the heap grows. A block is `malloc(bytes + 64)`, which
/// refills it; the caller gets the first 64-byte boundary past the block's
/// start (at least 16 bytes in), the word below keeps the start, and ASan
/// poisons the slack on both sides.
template <class T>
class AlignedAllocator {
  static constexpr std::size_t kAlign = kSimdAlign;
  static_assert(kAlign % alignof(std::max_align_t) == 0);

 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > (SIZE_MAX - kAlign) / sizeof(T)) throw std::bad_array_new_length();
    const std::size_t bytes = n * sizeof(T);
    auto* block = static_cast<std::byte*>(std::malloc(bytes + kAlign));
    if (block == nullptr) throw std::bad_alloc();
    std::byte* p =
        block + kAlign - reinterpret_cast<std::uintptr_t>(block) % kAlign;
    reinterpret_cast<void**>(p)[-1] = block;
    ASAN_POISON_MEMORY_REGION(block, p - block);
    ASAN_POISON_MEMORY_REGION(p + bytes, block + kAlign - p);
    return reinterpret_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    void** start = reinterpret_cast<void**>(p) - 1;
    ASAN_UNPOISON_MEMORY_REGION(start, sizeof(void*));
    std::free(*start);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Vector with 64-byte-aligned storage.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace sarbp
