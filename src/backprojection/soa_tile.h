// Structure-of-arrays image tile: the private per-thread accumulation
// buffer of the paper's §4.3 ("each thread writes to a private image
// buffer so that each 3D block is accessed contiguously without long
// strides"), in the split re/im layout the SIMD kernels want.
#pragma once

#include "common/aligned.h"
#include "common/grid2d.h"
#include "common/region.h"
#include "common/types.h"

namespace sarbp::bp {

class SoaTile {
 public:
  SoaTile() = default;
  SoaTile(Index width, Index height) { reset(width, height); }

  void reset(Index width, Index height) {
    width_ = width;
    height_ = height;
    re_.assign(static_cast<std::size_t>(width * height), 0.0f);
    im_.assign(static_cast<std::size_t>(width * height), 0.0f);
  }

  [[nodiscard]] Index width() const { return width_; }
  [[nodiscard]] Index height() const { return height_; }

  [[nodiscard]] float* row_re(Index y) { return re_.data() + y * width_; }
  [[nodiscard]] float* row_im(Index y) { return im_.data() + y * width_; }
  [[nodiscard]] const float* row_re(Index y) const { return re_.data() + y * width_; }
  [[nodiscard]] const float* row_im(Index y) const { return im_.data() + y * width_; }

  [[nodiscard]] CFloat at(Index x, Index y) const {
    const auto i = static_cast<std::size_t>(y * width_ + x);
    return {re_[i], im_[i]};
  }

  void add(Index x, Index y, CFloat v) {
    const auto i = static_cast<std::size_t>(y * width_ + x);
    re_[i] += v.real();
    im_[i] += v.imag();
  }

  /// Accumulates this tile into `out` with the tile's origin at
  /// (region.x0, region.y0) — the end-of-loop copy/reduction of §4.3.
  void accumulate_into(Grid2D<CFloat>& out, const Region& region) const;

  /// The same into another tile: `out`'s pixels in `region` += this tile.
  void accumulate_into(SoaTile& out, const Region& region) const;

 private:
  Index width_ = 0;
  Index height_ = 0;
  AlignedVector<float> re_;
  AlignedVector<float> im_;
};

/// The calling thread's block tile, reset to width x height zeros: a block
/// task sweeps one ASR block into it and adds the finished block to its
/// output (paper §4.3's per-thread tiles). The plan replay, the batch
/// driver and the streaming updates share it; it is reused from block to
/// block and call to call.
SoaTile& block_tile(Index width, Index height);

}  // namespace sarbp::bp
