#include "exec/formation_tasks.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "asr/block_plan.h"
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

  // A routed task's timed sweeps, in its own slot; the group's completion
  // adds each backend's slots up and records them once.
  struct Share {
    TileBackend* backend = nullptr;
    double backprojections = 0.0;
    double seconds = 0.0;
  };
  const auto shares = std::make_shared<std::vector<Share>>();

  // Cuts items [begin, end) into `count` contiguous tasks on `backend`.
  std::vector<TaskGroup::Task> tasks;
  const auto add_tasks = [&tasks, &body, &shares](TileBackend* backend,
                                                  Index begin, Index end,
                                                  Index count) {
    for (Index t = 0; t < count; ++t) {
      const Index i0 = begin + bp::split_begin(end - begin, count, t);
      const Index i1 = begin + bp::split_begin(end - begin, count, t + 1);
      const std::size_t slot = shares->size();
      if (backend != nullptr) shares->push_back(Share{backend});
      tasks.push_back([body, backend, shares, slot, i0, i1](TaskGroup& group) {
        const bp::AsrKernel& kernel =
            backend != nullptr ? backend->kernel() : body->kernel;
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
          Share& share = (*shares)[slot];
          const Timer timer;
          share.backprojections += body->sweep(i, kernel);
          share.seconds += timer.seconds();
        }
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
  if (!shares->empty()) {
    // One record per backend per group, its tasks' sums, so the §5.3 rate
    // follows whole formations, not single blocks; an aborted group's
    // partial sums are dropped. The completion runs after every task.
    on_complete = [shares, inner = std::move(on_complete)](TaskGroup& group) {
      if (!group.aborted()) {
        for (std::size_t k = 0; k < shares->size();) {
          Share sum = (*shares)[k];
          while (++k < shares->size() &&
                 (*shares)[k].backend == sum.backend) {
            sum.backprojections += (*shares)[k].backprojections;
            sum.seconds += (*shares)[k].seconds;
          }
          sum.backend->record(sum.backprojections, sum.seconds);
        }
      }
      if (inner) inner(group);
    };
  }
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
                                   Grid2D<CFloat>& out,
                                   std::shared_ptr<BackendSet> backends) {
  ensure(out.width() == grid.width() && out.height() == grid.height(),
         "make_backprojection_group: image shape mismatch");
  auto blocks = std::make_shared<const std::vector<asr::BlockSpec>>(
      asr::plan_blocks(0, 0, grid.width(), grid.height(), options.asr_block_w,
                       options.asr_block_h));

  FormationSpec spec;
  spec.items = static_cast<Index>(blocks->size());
  spec.sweep = [&history, &grid, &options, &out, blocks](
                   Index i, const bp::AsrKernel&) {
    const asr::BlockSpec& block = (*blocks)[static_cast<std::size_t>(i)];
    bp::CubePart part;
    part.pulse_end = history.num_pulses();
    part.region = Region{block.x0, block.y0, block.width, block.height};
    bp::SoaTile& tile = bp::block_tile(block.width, block.height);
    bp::run_cube_part(history, grid, options, part, tile);
    tile.accumulate_into(out, part.region);
    return static_cast<double>(part.region.pixels()) *
           static_cast<double>(part.pulse_end);
  };
  spec.task_cap = std::min(spec.items, static_cast<Index>(kDequeCapacity));
  spec.backends = std::move(backends);
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

Grid2D<CFloat> Backprojector::form_image(
    const sim::PhaseHistory& history) const {
  const Timer timer;
  Grid2D<CFloat> out(grid_.width(), grid_.height());
  const GroupPtr group =
      make_backprojection_group(history, grid_, options_, out);
  pool_->run(group);
  if (group->aborted()) {
    throw PreconditionError("Backprojector::form_image: " + group->error());
  }
  obs::registry().histogram("bp.form_image_s").record(timer.seconds());
  return out;
}

}  // namespace sarbp::exec
