// The rank level of the paper's hierarchical 3D partitioning (Fig. 5(b)):
// cluster::distributed_backprojection cuts the (pulse x y x x) cube into
// one cuboid per rank. The levels below it are not cuboids of this cube:
// on a node each task sweeps one ASR block over every pulse
// (exec::make_backprojection_group, the service's plan replay, the
// streaming updates), and the cache-blocking level is that block sweep,
// whose tile stays resident while the pulses stream.
//
// Partitioning policy (§4.2): split output-image dimensions first — pulse
// splits force privatized output buffers plus a reduction — and split the
// pulse dimension only when an image tile would drop below `min_edge`
// (the ASR block size).
#pragma once

#include <vector>

#include "common/region.h"
#include "common/types.h"

namespace sarbp::bp {

struct CubeShape {
  Index pulses = 0;
  Index width = 0;
  Index height = 0;
};

/// One partition: a pulse range crossed with an image region.
struct CubePart {
  Index pulse_begin = 0;
  Index pulse_end = 0;
  Region region;

  friend bool operator==(const CubePart&, const CubePart&) = default;
};

/// Factorization of a worker count into per-dimension part counts.
struct PartitionChoice {
  Index parts_x = 1;
  Index parts_y = 1;
  Index parts_pulse = 1;

  [[nodiscard]] Index total() const { return parts_x * parts_y * parts_pulse; }
};

/// Picks (parts_x, parts_y, parts_pulse) for `workers` ranks. Prefers the
/// smallest possible pulse-dimension split, then the most square image
/// tiles, subject to tiles not dropping below min_edge on either axis
/// (when the image is large enough to allow it).
PartitionChoice choose_partition(const CubeShape& shape, Index workers,
                                 Index min_edge);

/// Enumerates the parts of a choice, in pulse-major then y then x order.
/// Work is balanced to within one row/column/pulse per dimension.
std::vector<CubePart> partition_cube(const CubeShape& shape,
                                     const PartitionChoice& choice);

/// Evenly splits [0, extent) into `parts` contiguous spans; span i is
/// [split_begin(extent, parts, i), split_begin(extent, parts, i+1)).
[[nodiscard]] inline Index split_begin(Index extent, Index parts, Index i) {
  return extent * i / parts;
}

}  // namespace sarbp::bp
