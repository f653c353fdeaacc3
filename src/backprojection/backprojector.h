// High-level OpenMP backprojection driver.
//
// Composes the optimizations of §4: 3D partitioning across threads
// (partition.h), per-thread private output tiles with end-of-loop
// reduction, cache blocking along the pulse dimension, dynamic x/y loop
// reordering per pulse (wavefront.h), and the kernel selection (ASR/SIMD vs
// the baselines).
#pragma once

#include "backprojection/kernel.h"
#include "backprojection/partition.h"
#include "common/grid2d.h"
#include "common/timer.h"
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
  /// OpenMP workers; 0 = omp_get_max_threads().
  int threads = 0;
  /// Cache-blocking chunk along the pulse dimension (cube C of Fig. 5(b)).
  Index pulse_chunk = 64;
  /// Minimum image-tile edge before the partitioner switches to splitting
  /// pulses (§4.2); defaults to the ASR block size.
  Index min_region_edge = 64;
};

/// Executes one cuboid of the iteration space — pulses
/// [part.pulse_begin, part.pulse_end) over part.region — into a tile that
/// must already cover exactly part.region. Single-threaded; this is the
/// shared task body of the OpenMP driver below and the work-stealing tile
/// executor (src/exec/), so both produce bit-identical per-part sums.
void run_cube_part(const sim::PhaseHistory& history,
                   const geometry::ImageGrid& grid,
                   const BackprojectOptions& options, const CubePart& part,
                   SoaTile& tile);

class Backprojector {
 public:
  /// Throws PreconditionError on invalid options, kRefDouble included
  /// (its image is double precision: call backproject_ref).
  Backprojector(const geometry::ImageGrid& grid, BackprojectOptions options);

  [[nodiscard]] const geometry::ImageGrid& grid() const { return grid_; }
  [[nodiscard]] const BackprojectOptions& options() const { return options_; }

  /// Accumulates every pulse of `history` into the full image `out`
  /// (+=; callers zero the image for a fresh batch).
  void add_pulses(const sim::PhaseHistory& history, Grid2D<CFloat>& out) const;

  /// Accumulates pulses [pulse_begin, pulse_end) over `region` only —
  /// the entry point the cluster ranks and the offload slices use.
  /// Single-threaded (the caller owns parallelization at this level).
  void add_pulses_region(const sim::PhaseHistory& history,
                         const Region& region, Index pulse_begin,
                         Index pulse_end, Grid2D<CFloat>& out) const;

  /// Convenience: zeroed image + add_pulses.
  [[nodiscard]] Grid2D<CFloat> form_image(const sim::PhaseHistory& history) const;

  /// Backprojections (pixel-pulse pairs) a full-image pass performs.
  [[nodiscard]] double backprojections(const sim::PhaseHistory& history) const {
    return static_cast<double>(grid_.width()) *
           static_cast<double>(grid_.height()) *
           static_cast<double>(history.num_pulses());
  }

 private:
  geometry::ImageGrid grid_;
  BackprojectOptions options_;
};

}  // namespace sarbp::bp
