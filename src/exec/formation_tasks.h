// Image formation on the tile executor (paper §4.2-§4.3). How a formation
// is cut into tasks is decided here, once: make_formation_group turns N
// independent items (plan blocks, a streaming update's blocks, the
// Backprojector's cube parts) and a sweep body into contiguous item-range
// tasks, optionally routed across a BackendSet by its §5.3 split. The
// service's plan replay and the streaming updates build their groups
// through it: a plan replay asks for one task per block (at most
// kDequeCapacity, so an injection runs none inline), so that idle workers
// steal single blocks and a job ends without a one-task tail; a streaming
// update keeps the ~2 tasks per worker default.
//
// make_backprojection_group is the batch body: the §4.2 partitioner cuts
// the (pulse x y x x) cube into (region-tile x pulse-chunk) parts, one per
// task, each swept by bp::run_cube_part into a private SoaTile. The
// completion continuation reduces each region's pulse slices in a fixed
// stride-doubling tree over slice index, so the bytes never depend on
// which threads ran which tasks. Backprojector runs one such group per
// add_pulses call on the pool it owns, the caller sweeping beside it.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "backprojection/asr_sweep.h"
#include "backprojection/backprojector.h"
#include "common/grid2d.h"
#include "common/types.h"
#include "exec/executor.h"
#include "exec/task_group.h"
#include "exec/tile_backend.h"
#include "geometry/grid.h"
#include "sim/phase_history.h"

namespace sarbp::exec {

/// One formation as independent items, and how to cut it into tasks.
/// Items never write the same output element (disjoint block rectangles,
/// or private tiles), so any schedule gives the same bytes.
struct FormationSpec {
  Index items = 0;
  /// Untimed setup of one item (a plan miss builds the block's tables),
  /// run on the sweeping thread just before its sweep. Nullable.
  std::function<void(Index item)> prepare;
  /// Sweeps one item with its share's backend kernel (`kernel` below
  /// without backends) and returns its backprojections for the backend's
  /// rate tracker. Bodies that run no ASR kernel ignore the kernel.
  std::function<double(Index item, const bp::AsrKernel& kernel)> sweep;
  /// Task count: `task_cap` when positive (a plan replay passes its block
  /// count), else ~2 tasks per worker so thieves always find a remainder
  /// to take; never more tasks than items.
  int workers = 1;
  Index task_cap = 0;
  /// Nullable. Each backend gets a contiguous item range by the current
  /// §5.3 split, cut into tasks in proportion to its share; a task times
  /// its sweeps and records them once if it finishes unaborted.
  std::shared_ptr<BackendSet> backends;
  bp::AsrKernel kernel;
  /// Polled by the executor before each task, then by the task before
  /// each item's prepare; false aborts the group. Nullable.
  std::function<bool()> checkpoint;
  std::function<void(TaskGroup&)> on_complete;
  std::string label;
};

/// Cuts `spec` into a TaskGroup. Zero items make one no-op task, so the
/// checkpoint, abort and completion semantics stay uniform.
GroupPtr make_formation_group(FormationSpec spec);

/// Builds a group that accumulates every pulse of `history` into `out`
/// (+=; callers zero for a fresh image), decomposed for `parallelism`
/// concurrent workers. `history`, `grid`, `options`, and `out` must
/// outlive the group. `checkpoint` (nullable) is polled before each part;
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
