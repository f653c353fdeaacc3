#include "backprojection/sliding_window.h"

#include <utility>

#include "common/check.h"

namespace sarbp::bp {

SlidingWindow::SlidingWindow(Index width, Index height, Index capacity)
    : capacity_(capacity), image_(width, height) {
  ensure(width > 0 && height > 0 && capacity >= 1,
         "SlidingWindow: needs a non-empty image and capacity >= 1");
}

void SlidingWindow::push(Partial partial, Grid2D<CFloat> exact) {
  ensure(partial != nullptr && partial->same_shape(image_) &&
             (exact.empty() || exact.same_shape(image_)),
         "SlidingWindow::push: null partial or shape mismatch");
  const auto add = partial->flat();
  partials_.push_back(std::move(partial));
  const bool evicts = stored() > capacity_;
  if (!exact.empty()) {
    image_ = std::move(exact);
    since_anchor_ = 0;
  } else {
    // One pass, rounded as an add pass and then a subtract pass.
    const auto dst = image_.flat();
    const auto sub = partials_.front()->flat();
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = evicts ? dst[i] + add[i] - sub[i] : dst[i] + add[i];
    }
    ++since_anchor_;
  }
  if (evicts) partials_.pop_front();
}

Grid2D<CFloat> SlidingWindow::resum() const {
  Grid2D<CFloat> out(image_.width(), image_.height());
  const auto dst = out.flat();
  for (const Partial& partial : partials_) {
    const auto src = partial->flat();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
  }
  return out;
}

std::size_t SlidingWindow::footprint_bytes() const {
  return partials_.size() * batch_bytes(image_.width(), image_.height());
}

std::size_t SlidingWindow::batch_bytes(Index width, Index height) {
  // Widen each factor before multiplying: at paper scale (57K x 57K) the
  // pixel count overflows 32-bit arithmetic.
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
         sizeof(CFloat);
}

}  // namespace sarbp::bp
