// Backprojection options and the single-threaded part body: composes the
// optimizations of §4 for one cuboid of the (pulse x y x x) space — cache
// blocking along the pulse dimension, per-pulse x/y loop reordering
// (wavefront.h), and the kernel selection. The batch driver that splits an
// image across threads is exec::Backprojector (exec/formation_tasks.h).
#pragma once

#include "backprojection/kernel.h"
#include "backprojection/partition.h"
#include "common/grid2d.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

struct BackprojectOptions {
  KernelKind kernel = asr_simd_available() ? KernelKind::kAsrSimd
                                           : KernelKind::kAsrScalar;
  /// ASR approximation block (accuracy knob; 64 matches the baseline SNR).
  Index asr_block_w = 64;
  Index asr_block_h = 64;
  /// Per-pulse x/y loop-order selection from the wavefront orientation.
  bool dynamic_reorder = true;
  /// Batch-driver pool workers; 0 = all hardware threads.
  int threads = 0;
  /// Cache-blocking chunk along the pulse dimension (cube C of Fig. 5(b)).
  Index pulse_chunk = 64;
  /// Minimum image-tile edge before the partitioner switches to splitting
  /// pulses (§4.2); defaults to the ASR block size.
  Index min_region_edge = 64;

  /// Throws PreconditionError on invalid options, kRefDouble included
  /// (its image is double precision: call backproject_ref).
  void validate() const;
};

/// Executes one cuboid of the iteration space — pulses
/// [part.pulse_begin, part.pulse_end) over part.region — into a tile that
/// must already cover exactly part.region. Single-threaded; this is the
/// one task body of the batch driver (exec::make_backprojection_group) and
/// of add_pulses_region below. Each pulse chunk is one kernel call.
void run_cube_part(const sim::PhaseHistory& history,
                   const geometry::ImageGrid& grid,
                   const BackprojectOptions& options, const CubePart& part,
                   SoaTile& tile);

/// Accumulates pulses [pulse_begin, pulse_end) over `region` of `out` (+=)
/// on the calling thread, for callers that own the parallelism at their
/// level: the cluster ranks, the offload slices, autofocus.
void add_pulses_region(const sim::PhaseHistory& history,
                       const geometry::ImageGrid& grid,
                       const BackprojectOptions& options,
                       const Region& region, Index pulse_begin,
                       Index pulse_end, Grid2D<CFloat>& out);

}  // namespace sarbp::bp
