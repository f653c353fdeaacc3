#include "backprojection/sliding_window.h"

#include <atomic>
#include <utility>

#include "common/check.h"

namespace sarbp::bp {

SlidingWindow::SlidingWindow(Index width, Index height, Index capacity)
    : capacity_(capacity) {
  ensure(width > 0 && height > 0 && capacity >= 1,
         "SlidingWindow: needs a non-empty image and capacity >= 1");
  auto zeros = std::make_shared<Grid2D<CFloat>>(width, height);
  own_ = zeros.get();
  image_ = std::move(zeros);
}

void SlidingWindow::push(Partial partial) {
  ensure(partial != nullptr && partial->same_shape(*image_),
         "SlidingWindow::push: null partial or shape mismatch");
  std::shared_ptr<Grid2D<CFloat>> next;
  if (own_ != nullptr && image_.use_count() == 1) {
    // order: acquire — pairs with the release half of the last other
    // holder's reference drop, so its reads of the image come before the
    // writes below.
    std::atomic_thread_fence(std::memory_order_acquire);
    next = std::const_pointer_cast<Grid2D<CFloat>>(image_);
  } else {
    // Copy-on-write: someone else holds the image.
    next = std::make_shared<Grid2D<CFloat>>(image_->width(), image_->height());
  }
  slide(*image_, *partial, evicting().get(), *next,
        Region{0, 0, next->width(), next->height()});
  Grid2D<CFloat>* const own = next.get();
  push(std::move(partial), std::move(next), /*exact=*/false);
  own_ = own;
}

void SlidingWindow::push(Partial partial, Image image, bool exact) {
  ensure(partial != nullptr && image != nullptr &&
             partial->same_shape(*image_) && image->same_shape(*image_),
         "SlidingWindow::push: null partial or image, or shape mismatch");
  partials_.push_back(std::move(partial));
  if (stored() > capacity_) partials_.pop_front();
  image_ = std::move(image);
  own_ = nullptr;
  since_anchor_ = exact ? 0 : since_anchor_ + 1;
}

SlidingWindow::Partial SlidingWindow::evicting() const {
  return stored() == capacity_ ? partials_.front() : nullptr;
}

void SlidingWindow::slide(const Grid2D<CFloat>& prev,
                          const Grid2D<CFloat>& add, const Grid2D<CFloat>* sub,
                          Grid2D<CFloat>& out, const Region& region) {
  ensure(add.same_shape(prev) && out.same_shape(prev) &&
             (sub == nullptr || sub->same_shape(prev)) &&
             region.inside(prev.width(), prev.height()),
         "SlidingWindow::slide: shape mismatch or region outside the image");
  const auto x0 = static_cast<std::size_t>(region.x0);
  const auto n = static_cast<std::size_t>(region.width);
  for (Index y = region.y0; y < region.y0 + region.height; ++y) {
    const CFloat* p = prev.row(y).data() + x0;
    const CFloat* a = add.row(y).data() + x0;
    CFloat* o = out.row(y).data() + x0;
    if (sub == nullptr) {
      for (std::size_t i = 0; i < n; ++i) o[i] = p[i] + a[i];
    } else {
      const CFloat* s = sub->row(y).data() + x0;
      for (std::size_t i = 0; i < n; ++i) o[i] = p[i] + a[i] - s[i];
    }
  }
}

Grid2D<CFloat> SlidingWindow::resum() const {
  Grid2D<CFloat> out(image_->width(), image_->height());
  const auto dst = out.flat();
  for (const Partial& partial : partials_) {
    const auto src = partial->flat();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
  }
  return out;
}

std::size_t SlidingWindow::footprint_bytes() const {
  return partials_.size() * batch_bytes(image_->width(), image_->height());
}

std::size_t SlidingWindow::batch_bytes(Index width, Index height) {
  // Widen each factor before multiplying: at paper scale (57K x 57K) the
  // pixel count overflows 32-bit arithmetic.
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
         sizeof(CFloat);
}

}  // namespace sarbp::bp
