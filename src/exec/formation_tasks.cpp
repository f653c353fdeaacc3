#include "exec/formation_tasks.h"

#include <memory>
#include <utility>
#include <vector>

#include "backprojection/partition.h"
#include "backprojection/soa_tile.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace sarbp::exec {

GroupPtr make_backprojection_group(const sim::PhaseHistory& history,
                                   const geometry::ImageGrid& grid,
                                   const bp::BackprojectOptions& options,
                                   int parallelism, Grid2D<CFloat>& out,
                                   std::function<bool()> checkpoint) {
  ensure(parallelism >= 1, "make_backprojection_group: parallelism >= 1");
  ensure(out.width() == grid.width() && out.height() == grid.height(),
         "make_backprojection_group: image shape mismatch");

  const bp::CubeShape shape{history.num_pulses(), grid.width(), grid.height()};
  const bp::PartitionChoice choice =
      bp::choose_partition(shape, parallelism, options.min_region_edge);
  auto parts = std::make_shared<std::vector<bp::CubePart>>(
      bp::partition_cube(shape, choice));
  // One private tile per part (§4.3); index pp*XY + r, pulse-slice major.
  auto tiles = std::make_shared<std::vector<bp::SoaTile>>(parts->size());

  std::vector<TaskGroup::Task> tasks;
  tasks.reserve(parts->size());
  for (std::size_t i = 0; i < parts->size(); ++i) {
    tasks.push_back([&history, &grid, &options, parts, tiles, i](TaskGroup&) {
      const bp::CubePart& part = (*parts)[i];
      bp::SoaTile& tile = (*tiles)[i];
      tile.reset(part.region.width, part.region.height);
      bp::run_cube_part(history, grid, options, part, tile);
    });
  }

  const std::size_t slices = static_cast<std::size_t>(choice.parts_pulse);
  const std::size_t regions =
      static_cast<std::size_t>(choice.parts_x * choice.parts_y);
  auto on_complete = [parts, tiles, slices, regions, &out](TaskGroup& group) {
    if (group.aborted()) return;
    // Deterministic stride-doubling tree over the pulse slices of each
    // region, then one accumulate into the shared image per region.
    for (std::size_t r = 0; r < regions; ++r) {
      for (std::size_t stride = 1; stride < slices; stride *= 2) {
        for (std::size_t s = 0; s + stride < slices; s += 2 * stride) {
          (*tiles)[s * regions + r].accumulate_tile(
              (*tiles)[(s + stride) * regions + r]);
        }
      }
      (*tiles)[r].accumulate_into(out, (*parts)[r].region);
    }
  };

  return std::make_shared<TaskGroup>(std::move(tasks), std::move(checkpoint),
                                     std::move(on_complete), "backprojection");
}

Backprojector::Backprojector(const geometry::ImageGrid& grid,
                             bp::BackprojectOptions options)
    : grid_(grid), options_(options) {
  options_.validate();
  ExecOptions exec_options;
  exec_options.workers = options_.threads;
  exec_options.metric_prefix = "bp.";
  pool_ = std::make_unique<TileExecutor>(std::move(exec_options));
}

void Backprojector::add_pulses(const sim::PhaseHistory& history,
                               Grid2D<CFloat>& out) const {
  ensure(out.width() == grid_.width() && out.height() == grid_.height(),
         "Backprojector::add_pulses: image shape mismatch");
  if (history.num_pulses() == 0) return;

  Timer batch_timer;
  const GroupPtr group = make_backprojection_group(
      history, grid_, options_, pool_->workers(), out);
  pool_->run(group);
  if (group->aborted()) {
    throw PreconditionError("Backprojector::add_pulses: " + group->error());
  }

  obs::registry().histogram("bp.add_pulses_s").record(batch_timer.seconds());
}

Grid2D<CFloat> Backprojector::form_image(
    const sim::PhaseHistory& history) const {
  Grid2D<CFloat> out(grid_.width(), grid_.height());
  add_pulses(history, out);
  return out;
}

}  // namespace sarbp::exec
