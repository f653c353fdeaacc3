// Batch image formation on the tile executor (paper §4.2-§4.3): the one
// runtime that forms a backprojection batch.
//
// make_backprojection_group decomposes one batch into a TaskGroup: the
// (pulse x y x x) cube is cut by the §4.2 partitioner into (region-tile x
// pulse-chunk) parts, each task runs one part through bp::run_cube_part
// into a private SoaTile, and the group's completion continuation reduces
// the tiles and accumulates them into the output image.
//
// Determinism: the reduction combines the pulse slices of each region in a
// fixed stride-doubling tree over slice index, so the result is
// bit-identical regardless of which threads ran which tasks (steal on or
// off, any worker count).
//
// Backprojector is the batch driver: it owns a TileExecutor of
// `options.threads` workers and runs one such group per add_pulses call,
// with the calling thread sweeping parts beside the workers
// (TileExecutor::run). The service's cached-plan jobs build their groups
// in service/plan_cache.h instead.
#pragma once

#include <functional>
#include <memory>

#include "backprojection/backprojector.h"
#include "common/grid2d.h"
#include "common/types.h"
#include "exec/executor.h"
#include "exec/task_group.h"
#include "geometry/grid.h"
#include "sim/phase_history.h"

namespace sarbp::exec {

/// Builds a group that accumulates every pulse of `history` into `out`
/// (+=; callers zero for a fresh image), decomposed for `parallelism`
/// concurrent workers. `history`, `grid`, `options`, and `out` must
/// outlive the group. `checkpoint` (nullable) is polled before each task;
/// false aborts the job and leaves `out` untouched.
GroupPtr make_backprojection_group(const sim::PhaseHistory& history,
                                   const geometry::ImageGrid& grid,
                                   const bp::BackprojectOptions& options,
                                   int parallelism, Grid2D<CFloat>& out,
                                   std::function<bool()> checkpoint = nullptr);

class Backprojector {
 public:
  /// Throws PreconditionError on invalid options (BackprojectOptions::
  /// validate). Starts a pool of `options.threads` workers (0 = all
  /// hardware threads) whose metrics carry the "bp." prefix.
  Backprojector(const geometry::ImageGrid& grid,
                bp::BackprojectOptions options);

  [[nodiscard]] const geometry::ImageGrid& grid() const { return grid_; }
  [[nodiscard]] const bp::BackprojectOptions& options() const {
    return options_;
  }

  /// Accumulates every pulse of `history` into the full image `out`
  /// (+=; callers zero the image for a fresh batch): one
  /// make_backprojection_group run on the pool.
  void add_pulses(const sim::PhaseHistory& history, Grid2D<CFloat>& out) const;

  /// bp::add_pulses_region with this driver's grid and options: pulses
  /// [pulse_begin, pulse_end) over `region` only, on the calling thread.
  void add_pulses_region(const sim::PhaseHistory& history,
                         const Region& region, Index pulse_begin,
                         Index pulse_end, Grid2D<CFloat>& out) const {
    bp::add_pulses_region(history, grid_, options_, region, pulse_begin,
                          pulse_end, out);
  }

  /// Convenience: zeroed image + add_pulses.
  [[nodiscard]] Grid2D<CFloat> form_image(
      const sim::PhaseHistory& history) const;

  /// Backprojections (pixel-pulse pairs) a full-image pass performs.
  [[nodiscard]] double backprojections(const sim::PhaseHistory& history) const {
    return static_cast<double>(grid_.width()) *
           static_cast<double>(grid_.height()) *
           static_cast<double>(history.num_pulses());
  }

 private:
  geometry::ImageGrid grid_;
  bp::BackprojectOptions options_;
  std::unique_ptr<TileExecutor> pool_;
};

}  // namespace sarbp::exec
