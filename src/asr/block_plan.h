// Block decomposition of an image region for per-block ASR application
// (paper §3.5: "we control the accuracy of ASR by blocking the loop and
// applying ASR to each block").
#pragma once

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace sarbp::asr {

/// One rectangular pixel block: [x0, x0+width) x [y0, y0+height).
struct BlockSpec {
  Index x0 = 0;
  Index y0 = 0;
  Index width = 0;
  Index height = 0;

  friend bool operator==(const BlockSpec&, const BlockSpec&) = default;
};

/// A block edge (> 0) clamped to the `extent` pixels it tiles, before any
/// arithmetic: no block outgrows its region, so no edge a request or trace
/// names, however large, overflows Index in plan_blocks or in a band count.
[[nodiscard]] constexpr Index block_edge(Index extent, Index edge) {
  return std::min(edge, std::max<Index>(extent, 1));
}

/// How many blocks of edge `edge` (> 0) tile `extent` (>= 0) pixels.
[[nodiscard]] constexpr Index block_count(Index extent, Index edge) {
  edge = block_edge(extent, edge);
  return extent / edge + (extent % edge != 0 ? 1 : 0);
}

/// Tiles the region [x0, x0+width) x [y0, y0+height) with blocks of at most
/// block_w x block_h pixels (edge blocks may be smaller). Row-major order.
std::vector<BlockSpec> plan_blocks(Index x0, Index y0, Index width,
                                   Index height, Index block_w, Index block_h);

/// Default ASR block edge: the paper selects 64 x 64 as the size whose
/// accuracy matches the mixed-precision baseline (Fig. 8).
inline constexpr Index kDefaultBlock = 64;

}  // namespace sarbp::asr
