// Pieces of the paper's hierarchical partitioning (§4.2, Fig. 5(b)) that
// its callers share: a cuboid of the (pulse x y x x) iteration space and
// the even split of an extent. Neither the rank level nor the thread
// level splits pulses. The rank level is the sharded service's band cut
// (service::ShardRouter::split_job: ASR block rows, else columns, spread
// by split_begin); on a node each task sweeps one ASR block over every
// pulse (exec::make_backprojection_group through run_cube_part, the
// service's plan replay, the streaming updates); and the cache-blocking
// level is that block sweep, whose tile stays resident while the pulses
// stream.
#pragma once

#include "common/region.h"
#include "common/types.h"

namespace sarbp::bp {

/// One cuboid: a pulse range crossed with an image region.
struct CubePart {
  Index pulse_begin = 0;
  Index pulse_end = 0;
  Region region;
};

/// Evenly splits [0, extent) into `parts` contiguous spans; span i is
/// [split_begin(extent, parts, i), split_begin(extent, parts, i+1)).
[[nodiscard]] inline Index split_begin(Index extent, Index parts, Index i) {
  return extent * i / parts;
}

}  // namespace sarbp::bp
