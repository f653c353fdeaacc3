#include "service/plan_cache.h"

#include <utility>

#include "common/check.h"
#include "exec/formation_tasks.h"

namespace sarbp::service {

std::shared_ptr<FormationPlan> make_plan_skeleton(
    const PlanKey& key, const sim::PhaseHistory& history) {
  const Region& region = key.region;
  ensure(!region.empty(), "formation plan: empty region");
  ensure(key.block_w > 0 && key.block_h > 0,
         "formation plan: ASR block must be positive");
  ensure(history.num_pulses() > 0, "formation plan: no pulses");

  auto plan = std::make_shared<FormationPlan>();
  plan->key = key;
  plan->blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                  region.height, key.block_w, key.block_h);

  const Index pulses = history.num_pulses();
  plan->pulse_order.resize(static_cast<std::size_t>(pulses));
  std::size_t x_inner_pulses = 0;
  for (Index p = 0; p < pulses; ++p) {
    const geometry::LoopOrder order =
        geometry::choose_loop_order(history.meta(p).position, key.centre);
    plan->pulse_order[static_cast<std::size_t>(p)] = order;
    if (order == geometry::LoopOrder::kXInner) ++x_inner_pulses;
  }
  const std::size_t y_inner_pulses =
      static_cast<std::size_t>(pulses) - x_inner_pulses;
  for (const auto& block : plan->blocks) {
    plan->bytes +=
        x_inner_pulses *
            asr::BlockTables::footprint_bytes(block.width, block.height) +
        y_inner_pulses *
            asr::BlockTables::footprint_bytes(block.height, block.width);
  }
  plan->tables.resize(plan->blocks.size() * static_cast<std::size_t>(pulses));
  // Allocated last: placed before the blocks and slots, this vector slowed
  // the plan build (EXPERIMENTS.md, "One row kernel for both ISAs").
  plan->geometry = pulse_geometry(history);
  return plan;
}

void build_plan_block(FormationPlan& plan, std::size_t block,
                      const sim::PhaseHistory& history) {
  const geometry::ImageGrid grid(plan.key.grid_w, plan.key.grid_h,
                                 plan.key.spacing, plan.key.centre);
  const auto pulses = static_cast<std::size_t>(plan.num_pulses());
  std::vector<bp::TableSlot> slots(pulses);
  for (std::size_t p = 0; p < pulses; ++p) {
    slots[p] = {&history, static_cast<Index>(p), plan.pulse_order[p],
                &plan.tables[block * pulses + p]};
  }
  bp::build_asr_tables(grid, plan.blocks[block], slots);
}

std::shared_ptr<const FormationPlan> build_formation_plan(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history) {
  auto plan = make_plan_skeleton(
      make_plan_key(grid, region, block_w, block_h, history), history);
  for (std::size_t b = 0; b < plan->blocks.size(); ++b) {
    build_plan_block(*plan, b, history);
  }
  return plan;
}

namespace {

/// Sweeps pulses [pulse_begin, pulse_end) of plan block `block` into
/// `tile` with `kernel`; returns the backprojections it performed.
double sweep_plan_block(const FormationPlan& plan, std::size_t block,
                        const sim::PhaseHistory& history, Index pulse_begin,
                        Index pulse_end, const bp::AsrKernel& kernel,
                        bp::SoaTile& tile) {
  const asr::BlockSpec& spec = plan.blocks[block];
  bp::sweep_asr_block(spec, plan.key.region.x0, plan.key.region.y0,
                      plan.block_tables(block),
                      bp::PulseRange{&history, pulse_begin, pulse_end}, kernel,
                      tile);
  return static_cast<double>(spec.width) * static_cast<double>(spec.height) *
         static_cast<double>(pulse_end - pulse_begin);
}

}  // namespace

bool execute_plan(const FormationPlan& plan, const sim::PhaseHistory& history,
                  bp::SoaTile& tile, const std::function<bool()>& checkpoint) {
  ensure(history.num_pulses() == plan.num_pulses(),
         "execute_plan: history pulse count does not match the plan");
  ensure(tile.width() == plan.key.region.width &&
             tile.height() == plan.key.region.height,
         "execute_plan: tile/region shape mismatch");
  // Block-outer / pulse-inner, the cache-blocking order of the scalar
  // kernel: one block's output rows stay resident while the pulses stream.
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    if (checkpoint && !checkpoint()) return false;
    sweep_plan_block(plan, b, history, 0, plan.num_pulses(), bp::AsrKernel{},
                     tile);
  }
  return true;
}

exec::GroupPtr make_plan_replay_group(
    std::shared_ptr<const FormationPlan> plan,
    std::shared_ptr<const sim::PhaseHistory> history, int parallelism,
    Index tile_tasks, std::shared_ptr<bp::SoaTile> tile,
    std::function<bool()> checkpoint,
    std::function<void(exec::TaskGroup&)> on_complete,
    Index pulse_begin, Index pulse_end,
    std::shared_ptr<exec::BackendSet> backends, PlanCache* insert_into) {
  ensure(plan != nullptr && history != nullptr && tile != nullptr,
         "make_plan_replay_group: null plan/history/tile");
  ensure(history->num_pulses() == plan->num_pulses(),
         "make_plan_replay_group: history pulse count does not match the plan");
  ensure(tile->width() == plan->key.region.width &&
             tile->height() == plan->key.region.height,
         "make_plan_replay_group: tile/region shape mismatch");
  if (pulse_end < 0) pulse_end = plan->num_pulses();
  ensure(pulse_begin >= 0 && pulse_begin <= pulse_end &&
             pulse_end <= plan->num_pulses(),
         "make_plan_replay_group: bad pulse range");

  exec::FormationSpec spec;
  spec.items = static_cast<Index>(plan->blocks.size());
  spec.sweep = [plan, history, tile, pulse_begin, pulse_end](
                   Index b, const bp::AsrKernel& kernel) {
    return sweep_plan_block(*plan, static_cast<std::size_t>(b), *history,
                            pulse_begin, pulse_end, kernel, *tile);
  };
  spec.workers = parallelism;
  spec.task_cap = tile_tasks;
  spec.backends = std::move(backends);
  // Without backends: the widest vector rows, execute_plan's bytes.
  spec.kernel = bp::AsrKernel{bp::SimdIsa::kAuto};
  spec.checkpoint = std::move(checkpoint);
  spec.on_complete = std::move(on_complete);
  spec.label = "plan_replay";
  if (insert_into != nullptr) {
    // A miss skeleton has not been published yet: the group's tasks are
    // its only users until the continuation inserts it, so each block's
    // table slots (disjoint per block) are filled just before the block's
    // sweep, outside the backend timer. Insert-on-success: an aborted
    // group leaves slots unbuilt, so only a group that ran every task
    // publishes its plan — before the caller's continuation runs.
    auto skeleton = std::const_pointer_cast<FormationPlan>(plan);
    spec.prepare = [skeleton, history](Index b) {
      build_plan_block(*skeleton, static_cast<std::size_t>(b), *history);
    };
    spec.on_complete = [plan, insert_into,
                        on_complete = std::move(spec.on_complete)](
                           exec::TaskGroup& group) {
      if (!group.aborted()) insert_into->insert(plan);
      if (on_complete) on_complete(group);
    };
  }
  return exec::make_formation_group(std::move(spec));
}

PlanLookup lookup_plan(PlanCache& cache, const geometry::ImageGrid& grid,
                       const Region& region, Index block_w, Index block_h,
                       const sim::PhaseHistory& history) {
  const PlanKey key = make_plan_key(grid, region, block_w, block_h, history);
  if (auto plan = cache.find(key, history)) return {std::move(plan), nullptr};
  return {make_plan_skeleton(key, history), &cache};
}

}  // namespace sarbp::service
