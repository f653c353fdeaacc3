#include "backprojection/soa_tile.h"

#include "common/check.h"

namespace sarbp::bp {

void SoaTile::accumulate_into(Grid2D<CFloat>& out, const Region& region) const {
  ensure(region.width == width_ && region.height == height_,
         "SoaTile::accumulate_into: region shape mismatch");
  ensure(region.x0 >= 0 && region.y0 >= 0 &&
             region.x0 + region.width <= out.width() &&
             region.y0 + region.height <= out.height(),
         "SoaTile::accumulate_into: region outside image");
  for (Index y = 0; y < height_; ++y) {
    auto dst = out.row(region.y0 + y);
    const float* src_re = row_re(y);
    const float* src_im = row_im(y);
    for (Index x = 0; x < width_; ++x) {
      dst[static_cast<std::size_t>(region.x0 + x)] +=
          CFloat(src_re[x], src_im[x]);
    }
  }
}

void SoaTile::accumulate_into(SoaTile& out, const Region& region) const {
  ensure(region.width == width_ && region.height == height_,
         "SoaTile::accumulate_into: region shape mismatch");
  ensure(region.x0 >= 0 && region.y0 >= 0 &&
             region.x0 + region.width <= out.width() &&
             region.y0 + region.height <= out.height(),
         "SoaTile::accumulate_into: region outside tile");
  for (Index y = 0; y < height_; ++y) {
    float* dst_re = out.row_re(region.y0 + y) + region.x0;
    float* dst_im = out.row_im(region.y0 + y) + region.x0;
    const float* src_re = row_re(y);
    const float* src_im = row_im(y);
    for (Index x = 0; x < width_; ++x) {
      dst_re[x] += src_re[x];
      dst_im[x] += src_im[x];
    }
  }
}

SoaTile& block_tile(Index width, Index height) {
  static thread_local SoaTile tile;
  tile.reset(width, height);
  return tile;
}

}  // namespace sarbp::bp
