#include "exec/formation_tasks.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "backprojection/partition.h"
#include "backprojection/soa_tile.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace sarbp::exec {

GroupPtr make_formation_group(FormationSpec spec) {
  ensure(spec.items >= 0 && spec.workers >= 1 && spec.sweep,
         "make_formation_group: needs items >= 0, workers >= 1, a sweep");
  const Index n = spec.items;
  const Index fanout = std::clamp<Index>(
      spec.task_cap > 0
          ? spec.task_cap
          : std::max<Index>(2, 2 * static_cast<Index>(spec.workers)),
      1, std::max<Index>(n, 1));
  auto checkpoint = spec.checkpoint;
  auto on_complete = std::move(spec.on_complete);
  std::string label = std::move(spec.label);
  // The tasks share one copy of the body; it also keeps the backends alive.
  const auto body = std::make_shared<const FormationSpec>(std::move(spec));

  // Cuts items [begin, end) into `count` contiguous tasks on `backend`.
  std::vector<TaskGroup::Task> tasks;
  const auto add_tasks = [&tasks, &body](TileBackend* backend, Index begin,
                                         Index end, Index count) {
    for (Index t = 0; t < count; ++t) {
      const Index i0 = begin + bp::split_begin(end - begin, count, t);
      const Index i1 = begin + bp::split_begin(end - begin, count, t + 1);
      tasks.push_back([body, backend, i0, i1](TaskGroup& group) {
        const bp::AsrKernel& kernel =
            backend != nullptr ? backend->kernel() : body->kernel;
        double seconds = 0.0;
        double backprojections = 0.0;
        for (Index i = i0; i < i1; ++i) {
          if (body->checkpoint && !body->checkpoint()) {
            group.abort();
            return;
          }
          if (body->prepare) body->prepare(i);
          if (backend == nullptr) {
            body->sweep(i, kernel);
            continue;
          }
          const Timer timer;
          backprojections += body->sweep(i, kernel);
          seconds += timer.seconds();
        }
        if (backend != nullptr) backend->record(backprojections, seconds);
      });
    }
  };
  if (body->backends == nullptr) {
    add_tasks(nullptr, 0, n, fanout);
  } else {
    // §5.3: one contiguous range per backend by the current split, cut
    // into tasks in proportion to its share of the fan-out.
    BackendSet& backends = *body->backends;
    const std::vector<Index> bounds = backends.partition(n);
    for (int k = 0; k < backends.size(); ++k) {
      const Index k0 = bounds[static_cast<std::size_t>(k)];
      const Index k1 = bounds[static_cast<std::size_t>(k) + 1];
      if (k0 >= k1) continue;
      add_tasks(&backends.backend(k), k0, k1,
                std::clamp<Index>(
                    static_cast<Index>(std::llround(
                        static_cast<double>(fanout) *
                        static_cast<double>(k1 - k0) / static_cast<double>(n))),
                    1, k1 - k0));
    }
  }
  if (tasks.empty()) tasks.emplace_back([](TaskGroup&) {});  // zero items
  return std::make_shared<TaskGroup>(std::move(tasks), std::move(checkpoint),
                                     std::move(on_complete), std::move(label));
}

void parallel_for(TileExecutor& pool, Index items, Index task_cap,
                  const std::function<void(Index item)>& body) {
  FormationSpec spec;
  spec.items = items;
  spec.sweep = [&body](Index i, const bp::AsrKernel&) {
    body(i);
    return 0.0;
  };
  spec.workers = pool.workers();
  spec.task_cap = task_cap;
  spec.label = "parallel_for";
  const GroupPtr group = make_formation_group(std::move(spec));
  pool.run(group);
  if (group->aborted()) {
    throw PreconditionError("parallel_for: " + group->error());
  }
}

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

  FormationSpec spec;
  spec.items = static_cast<Index>(parts->size());
  spec.sweep = [&history, &grid, &options, parts, tiles](
                   Index i, const bp::AsrKernel&) {
    const bp::CubePart& part = (*parts)[static_cast<std::size_t>(i)];
    bp::SoaTile& tile = (*tiles)[static_cast<std::size_t>(i)];
    tile.reset(part.region.width, part.region.height);
    bp::run_cube_part(history, grid, options, part, tile);
    return 0.0;
  };
  spec.workers = parallelism;
  spec.task_cap = spec.items;  // one part per task
  spec.checkpoint = std::move(checkpoint);

  const std::size_t slices = static_cast<std::size_t>(choice.parts_pulse);
  const std::size_t regions =
      static_cast<std::size_t>(choice.parts_x * choice.parts_y);
  spec.on_complete = [parts, tiles, slices, regions, &out](TaskGroup& group) {
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
  spec.label = "backprojection";
  return make_formation_group(std::move(spec));
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
