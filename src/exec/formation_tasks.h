// Image formation on the tile executor (paper §4.2-§4.3). How a formation
// is cut into tasks is decided here, once: make_formation_group turns N
// independent items (the blocks of a plan, of a streaming update or of the
// batch driver's grid) and a sweep body into contiguous item-range tasks,
// optionally routed across a BackendSet by its §5.3 split. The service's
// plan replay and the batch driver ask for one task per block (at most
// kDequeCapacity, so an injection runs none inline), so that idle workers
// steal single blocks and a formation ends without a one-task tail; a
// streaming update keeps the ~2 tasks per worker default.
//
// make_backprojection_group is the batch body: each task sweeps one ASR
// block of the grid over every pulse with bp::run_cube_part's kernel into
// its thread's block tile, then adds the finished block straight into the
// image. Blocks are disjoint, so the bytes never depend on which threads
// ran which tasks. Backprojector runs one such group per form_image call
// on the pool it owns, the caller sweeping beside it.
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
/// or a loop's per-item outputs), so any schedule gives the same bytes.
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

/// A loop outside image formation (the pipeline's registration): runs
/// body(item) for every item in [0, items) as one make_formation_group on
/// `pool`, the caller sweeping beside its workers, in `task_cap` tasks when
/// positive, else ~2 per worker. Items write disjoint outputs, so the
/// bytes never depend on the schedule. Throws PreconditionError when a
/// body throws.
void parallel_for(TileExecutor& pool, Index items, Index task_cap,
                  const std::function<void(Index item)>& body);

/// Builds a group that adds every pulse of `history` into `out` (+=; a
/// fresh image is zeroed): one item and one task per ASR block of the grid
/// (asr::plan_blocks with the options' block size; at most kDequeCapacity
/// tasks). An item sweeps its block over every pulse with bp::run_cube_part
/// into its thread's bp::block_tile and adds the finished block into
/// `out`, so a zeroed `out` receives one serial kernel call's bytes over
/// the whole grid on any schedule. `history`, `grid`, `options` and `out`
/// must outlive the group. A group aborted by a throwing sweep may leave
/// finished blocks in `out`.
GroupPtr make_backprojection_group(const sim::PhaseHistory& history,
                                   const geometry::ImageGrid& grid,
                                   const bp::BackprojectOptions& options,
                                   Grid2D<CFloat>& out);

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

  /// The pool form_image runs on; the pipeline's registration shares it.
  [[nodiscard]] TileExecutor& pool() const { return *pool_; }

  /// The image of every pulse of `history`: one make_backprojection_group
  /// on the pool, the caller sweeping beside it. Throws PreconditionError
  /// when a block's sweep throws (a radar on a block centre); the partly
  /// formed image is dropped.
  [[nodiscard]] Grid2D<CFloat> form_image(
      const sim::PhaseHistory& history) const;

 private:
  geometry::ImageGrid grid_;
  bp::BackprojectOptions options_;
  std::unique_ptr<TileExecutor> pool_;
};

}  // namespace sarbp::exec
