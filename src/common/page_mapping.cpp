#include "common/page_mapping.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

#include "common/check.h"

namespace sarbp {

PageMapping::PageMapping(std::size_t bytes) {
  ensure(bytes > 0, "PageMapping: a mapping must be non-empty");
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t size = (bytes + page - 1) / page * page;
  void* data = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(data);
  size_ = size;
}

PageMapping::~PageMapping() {
  if (data_ != nullptr) munmap(data_, size_);
}

}  // namespace sarbp
