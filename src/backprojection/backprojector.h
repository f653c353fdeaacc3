// Backprojection options and the single-threaded part body: one kernel
// call over one cuboid of the (pulse x y x x) space, each pulse in its
// wavefront loop order (wavefront.h), and the kernel selection. The batch
// driver that spreads an image's ASR blocks across threads is
// exec::Backprojector (exec/formation_tasks.h).
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
  /// Pool workers of the batch driver (exec::Backprojector), its only
  /// reader; 0 = all hardware threads. The calling thread sweeps beside
  /// them, so an image of more than one task sweeps on up to threads + 1
  /// threads (one per task at most). run_cube_part and add_pulses_region
  /// sweep on the calling thread whatever it says.
  int threads = 0;

  /// Throws PreconditionError on invalid options, kRefDouble included
  /// (its image is double precision: call backproject_ref).
  void validate() const;
};

/// Executes one cuboid of the iteration space — pulses
/// [part.pulse_begin, part.pulse_end) over part.region — into a tile that
/// must already cover exactly part.region, as one call of the options'
/// kernel. Single-threaded; this is the body of the batch driver's block
/// tasks (exec::make_backprojection_group: one ASR block, every pulse) and
/// of add_pulses_region below.
void run_cube_part(const sim::PhaseHistory& history,
                   const geometry::ImageGrid& grid,
                   const BackprojectOptions& options, const CubePart& part,
                   SoaTile& tile);

/// Accumulates pulses [pulse_begin, pulse_end) over `region` of `out` (+=)
/// on the calling thread, for callers that need no parallelism: autofocus
/// and the ablation_incremental bench's monolithic and per-batch
/// baselines.
void add_pulses_region(const sim::PhaseHistory& history,
                       const geometry::ImageGrid& grid,
                       const BackprojectOptions& options,
                       const Region& region, Index pulse_begin,
                       Index pulse_end, Grid2D<CFloat>& out);

}  // namespace sarbp::bp
