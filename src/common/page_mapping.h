// Anonymous page mappings: buffers that come straight from the kernel and
// go straight back to it, for the few allocations large enough that where
// the allocator places them matters (a formation plan's arena, DESIGN.md
// §8).
#pragma once

#include <cstddef>
#include <utility>

namespace sarbp {

/// A private anonymous read-write mapping of whole pages. Its pages are
/// zero on first touch and page-aligned (so 64-byte aligned), and all of
/// them go back to the kernel when the mapping is destroyed; unlike an
/// operator new block, a mapping shares no page with another allocation.
/// Move-only; a moved-from mapping is empty.
class PageMapping {
 public:
  PageMapping() = default;
  /// Maps `bytes` (> 0) rounded up to whole pages; throws std::bad_alloc
  /// when the kernel refuses.
  explicit PageMapping(std::size_t bytes);
  ~PageMapping();

  PageMapping(PageMapping&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PageMapping& operator=(PageMapping&& other) noexcept {
    PageMapping old(std::move(*this));
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  PageMapping(const PageMapping&) = delete;
  PageMapping& operator=(const PageMapping&) = delete;

  [[nodiscard]] std::byte* data() const { return data_; }
  /// The mapped length: a whole number of pages, 0 when empty.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace sarbp
