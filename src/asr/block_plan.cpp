#include "asr/block_plan.h"

namespace sarbp::asr {

std::vector<BlockSpec> plan_blocks(Index x0, Index y0, Index width,
                                   Index height, Index block_w,
                                   Index block_h) {
  ensure(width >= 0 && height >= 0, "plan_blocks: negative region");
  ensure(block_w > 0 && block_h > 0, "plan_blocks: block size must be positive");
  block_w = block_edge(width, block_w);
  block_h = block_edge(height, block_h);
  std::vector<BlockSpec> blocks;
  blocks.reserve(static_cast<std::size_t>(block_count(width, block_w) *
                                          block_count(height, block_h)));
  for (Index dy = 0; dy < height; dy += block_h) {
    for (Index dx = 0; dx < width; dx += block_w) {
      blocks.push_back({x0 + dx, y0 + dy, std::min(block_w, width - dx),
                        std::min(block_h, height - dy)});
    }
  }
  return blocks;
}

}  // namespace sarbp::asr
