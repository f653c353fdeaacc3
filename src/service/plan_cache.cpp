#include "service/plan_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "exec/formation_tasks.h"

namespace sarbp::service {

namespace {

std::size_t round_up(std::size_t bytes, std::size_t unit) {
  return (bytes + unit - 1) / unit * unit;
}

/// The grid a plan's key describes.
geometry::ImageGrid plan_grid(const PlanKey& key) {
  return {key.grid_w, key.grid_h, key.spacing, key.centre};
}

/// A table-less plan: the key, the blocks and the pulse order.
std::shared_ptr<FormationPlan> plan_layout(const PlanKey& key,
                                           const sim::PhaseHistory& history) {
  const Region& region = key.region;
  ensure(!region.empty(), "formation plan: empty region");
  ensure(key.block_w > 0 && key.block_h > 0,
         "formation plan: ASR block must be positive");
  ensure(history.num_pulses() > 0, "formation plan: no pulses");

  auto plan = std::make_shared<FormationPlan>();
  plan->key = key;
  plan->blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                  region.height, key.block_w, key.block_h);
  plan->pulse_order.resize(static_cast<std::size_t>(history.num_pulses()));
  for (std::size_t p = 0; p < plan->pulse_order.size(); ++p) {
    plan->pulse_order[p] = geometry::choose_loop_order(
        history.meta(static_cast<Index>(p)).position, key.centre);
  }
  return plan;
}

/// A plan without tables: the key, `history`'s pulse geometry, the blocks,
/// the pulse order, `bytes`, and a fresh arena with one table view per
/// (block, pulse). The tables' entries are zero until built.
std::shared_ptr<FormationPlan> skeleton(const PlanKey& key,
                                        const sim::PhaseHistory& history) {
  auto plan = plan_layout(key, history);
  plan->geometry = pulse_geometry(history);
  const auto x_inner_pulses = static_cast<std::size_t>(
      std::count(plan->pulse_order.begin(), plan->pulse_order.end(),
                 geometry::LoopOrder::kXInner));
  const std::size_t y_inner_pulses =
      plan->pulse_order.size() - x_inner_pulses;
  std::size_t table_floats = 0;
  for (const auto& block : plan->blocks) {
    table_floats +=
        x_inner_pulses *
            asr::BlockTables::footprint_floats(block.width, block.height) +
        y_inner_pulses *
            asr::BlockTables::footprint_floats(block.height, block.width);
  }
  plan->bytes = table_floats * sizeof(float);

  // The arena: the views, then every table, block-major in pulse order.
  const std::size_t views = plan->blocks.size() * plan->pulse_order.size();
  const std::size_t views_bytes =
      round_up(views * sizeof(asr::BlockTables), kSimdAlign);
  plan->arena = PageMapping(views_bytes + plan->bytes);
  auto* view = reinterpret_cast<asr::BlockTables*>(plan->arena.data());
  plan->tables = {view, views};
  auto* storage = reinterpret_cast<float*>(plan->arena.data() + views_bytes);
  for (const auto& block : plan->blocks) {
    for (const geometry::LoopOrder order : plan->pulse_order) {
      const bool x_inner = order == geometry::LoopOrder::kXInner;
      const Index w = x_inner ? block.width : block.height;
      const Index h = x_inner ? block.height : block.width;
      std::construct_at(view++, storage, w, h);
      storage += asr::BlockTables::footprint_floats(w, h);
    }
  }
  return plan;
}

}  // namespace

void build_plan_block(FormationPlan& plan, std::size_t block,
                      const sim::PhaseHistory& history) {
  ensure(plan.has_tables(), "build_plan_block: the plan is table-less");
  const geometry::ImageGrid grid = plan_grid(plan.key);
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
  auto plan = skeleton(make_plan_key(grid, region, block_w, block_h, history),
                       history);
  for (std::size_t b = 0; b < plan->blocks.size(); ++b) {
    build_plan_block(*plan, b, history);
  }
  return plan;
}

namespace {

/// Sweeps pulses [pulse_begin, pulse_end) of plan block `block` into
/// `tile`, whose (0, 0) pixel is image pixel (tile_x0, tile_y0), with
/// `kernel`, from the plan's tables or, on a table-less plan, with tables
/// built on the fly (each pulse's loop order by the rule pulse_order
/// records); returns the backprojections it performed.
double sweep_plan_block(const FormationPlan& plan, std::size_t block,
                        const sim::PhaseHistory& history, Index pulse_begin,
                        Index pulse_end, const bp::AsrKernel& kernel,
                        bp::SoaTile& tile, Index tile_x0, Index tile_y0) {
  const asr::BlockSpec& spec = plan.blocks[block];
  const bp::PulseRange pulses{&history, pulse_begin, pulse_end};
  if (plan.has_tables()) {
    bp::sweep_asr_block(spec, tile_x0, tile_y0, plan.block_tables(block),
                        pulses, kernel, tile);
  } else {
    bp::sweep_asr_block(spec, tile_x0, tile_y0, plan_grid(plan.key),
                        {&pulses, 1}, std::nullopt, kernel, tile);
  }
  return static_cast<double>(spec.width) * static_cast<double>(spec.height) *
         static_cast<double>(pulse_end - pulse_begin);
}

/// The replay's per-thread block tile, reused from block to block.
bp::SoaTile& block_tile(const asr::BlockSpec& block) {
  static thread_local bp::SoaTile tile;
  tile.reset(block.width, block.height);
  return tile;
}

}  // namespace

bool execute_plan(const FormationPlan& plan, const sim::PhaseHistory& history,
                  bp::SoaTile& tile, const std::function<bool()>& checkpoint) {
  ensure(plan.has_tables(), "execute_plan: the plan is table-less");
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
                     tile, plan.key.region.x0, plan.key.region.y0);
  }
  return true;
}

exec::GroupPtr make_plan_replay_group(
    std::shared_ptr<const FormationPlan> plan,
    std::shared_ptr<const sim::PhaseHistory> history, int parallelism,
    Index tile_tasks, ReplayOutput out,
    std::function<bool()> checkpoint,
    std::function<void(exec::TaskGroup&)> on_complete,
    Index pulse_begin, Index pulse_end,
    std::shared_ptr<exec::BackendSet> backends, PlanCache* insert_into) {
  const bool has_out =
      std::visit([](const auto& o) { return o != nullptr; }, out);
  ensure(plan != nullptr && history != nullptr && has_out,
         "make_plan_replay_group: null plan/history/output");
  ensure(history->num_pulses() == plan->num_pulses(),
         "make_plan_replay_group: history pulse count does not match the plan");
  const Region& region = plan->key.region;
  ensure(std::visit(
             [&region](const auto& o) {
               return o->width() == region.width &&
                      o->height() == region.height;
             },
             out),
         "make_plan_replay_group: output/region shape mismatch");
  if (pulse_end < 0) pulse_end = plan->num_pulses();
  ensure(pulse_begin >= 0 && pulse_begin <= pulse_end &&
             pulse_end <= plan->num_pulses(),
         "make_plan_replay_group: bad pulse range");

  exec::FormationSpec spec;
  spec.items = static_cast<Index>(plan->blocks.size());
  spec.sweep = [plan, history, out = std::move(out), origin = region,
                pulse_begin, pulse_end](Index b, const bp::AsrKernel& kernel) {
    const asr::BlockSpec& block = plan->blocks[static_cast<std::size_t>(b)];
    bp::SoaTile& tile = block_tile(block);
    const double backprojections =
        sweep_plan_block(*plan, static_cast<std::size_t>(b), *history,
                         pulse_begin, pulse_end, kernel, tile, block.x0,
                         block.y0);
    const Region at{block.x0 - origin.x0, block.y0 - origin.y0, block.width,
                    block.height};
    std::visit([&](const auto& o) { tile.accumulate_into(*o, at); }, out);
    return backprojections;
  };
  spec.workers = parallelism;
  spec.task_cap =
      tile_tasks > 0 ? tile_tasks
                     : std::min(spec.items,
                                static_cast<Index>(exec::kDequeCapacity));
  spec.backends = std::move(backends);
  // Without backends: the widest vector rows, execute_plan's bytes.
  spec.kernel = bp::AsrKernel{bp::SimdIsa::kAuto};
  spec.checkpoint = std::move(checkpoint);
  spec.on_complete = std::move(on_complete);
  spec.label = "plan_replay";
  if (insert_into != nullptr) {
    ensure(plan->has_tables(),
           "make_plan_replay_group: a table-less plan cannot be inserted");
    // A miss skeleton has not been published yet: the group's tasks are
    // its only users until the continuation inserts it, so each block's
    // tables (disjoint per block) are built just before the block's
    // sweep, outside the backend timer. Insert-on-success: an aborted
    // group leaves tables unbuilt, so only a group that ran every task
    // publishes its plan. Either way the key's build mark clears before
    // the caller's continuation runs, so a repeat submitted after the job
    // resolves hits, or is kept again.
    auto built = std::const_pointer_cast<FormationPlan>(plan);
    spec.prepare = [built, history](Index b) {
      build_plan_block(*built, static_cast<std::size_t>(b), *history);
    };
    spec.on_complete = [plan, insert_into,
                        on_complete = std::move(spec.on_complete)](
                           exec::TaskGroup& group) {
      if (group.aborted()) {
        plan->building.reset();
      } else {
        insert_into->insert(plan);
      }
      if (on_complete) on_complete(group);
    };
  }
  return exec::make_formation_group(std::move(spec));
}

struct PlanCache::Record {
  /// A leaf: nothing is acquired under it and no plan is released under
  /// it, while a build mark may clear under any lock, since it takes this
  /// one.
  Mutex mutex{SARBP_LOCK_LEVEL("service.plan_record")};
  /// PlanKeyHash of the last unkept misses' keys, newest first.
  std::deque<std::size_t> recent SARBP_GUARDED_BY(mutex);
  /// PlanKeyHash of the keys that kept misses are building: their marks.
  std::vector<std::size_t> building SARBP_GUARDED_BY(mutex);
  /// Plans inserted so far. A lookup reads it before its find; insert adds
  /// to it after the cache lock and before the record lock, which order it.
  std::atomic<std::uint64_t> inserts{0};

  enum class Mark { kKept, kUnkept, kOvertaken };

  /// On a miss of `hash`: when it recurs (it is in `recent`) and no kept
  /// miss is building it, marks it as building and returns kKept, unless a
  /// plan was inserted since the lookup read `inserts_seen` (kOvertaken,
  /// nothing marked: that plan may be this key's, its mark already
  /// cleared). Else records it unless it is being built or recurs, and
  /// returns kUnkept.
  Mark mark(std::size_t hash, std::size_t capacity,
            std::uint64_t inserts_seen) {
    MutexLock lock(mutex);
    if (std::find(building.begin(), building.end(), hash) != building.end()) {
      return Mark::kUnkept;
    }
    if (std::find(recent.begin(), recent.end(), hash) == recent.end()) {
      recent.push_front(hash);
      if (recent.size() > capacity) recent.pop_back();
      return Mark::kUnkept;
    }
    // order: relaxed — see `inserts`.
    if (inserts.load(std::memory_order_relaxed) != inserts_seen) {
      return Mark::kOvertaken;
    }
    building.push_back(hash);
    return Mark::kKept;
  }

  void unmark(std::size_t hash) {
    MutexLock lock(mutex);
    building.erase(std::find(building.begin(), building.end(), hash));
  }
};

PlanCache::PlanCache(std::size_t capacity, obs::Registry* metrics)
    : ReuseCache(capacity, "service.plan_cache", metrics),
      record_(std::make_shared<Record>()) {
  if constexpr (obs::kEnabled) {
    auto& reg = metrics != nullptr ? *metrics : obs::registry();
    unkept_ = &reg.counter("service.plan_cache.unkept");
  }
}

void PlanCache::insert(const Value& plan) {
  ReuseCache::insert(plan->key, plan, plan->bytes);
  // order: relaxed — see Record::inserts.
  record_->inserts.fetch_add(1, std::memory_order_relaxed);
  plan->building.reset();
}

PlanLookup lookup_plan(PlanCache& cache, const geometry::ImageGrid& grid,
                       const Region& region, Index block_w, Index block_h,
                       const sim::PhaseHistory& history) {
  using Mark = PlanCache::Record::Mark;
  const PlanKey key = make_plan_key(grid, region, block_w, block_h, history);
  const std::shared_ptr<PlanCache::Record>& record = cache.record_;
  // order: relaxed — see Record::inserts.
  std::uint64_t inserts = record->inserts.load(std::memory_order_relaxed);
  if (auto plan = cache.find(key, history)) return {std::move(plan), nullptr};
  const std::size_t hash = PlanKeyHash{}(key);
  Mark outcome = cache.capacity() == 0
                     ? Mark::kUnkept
                     : record->mark(hash, cache.capacity(), inserts);
  while (outcome == Mark::kOvertaken) {
    // This key's plan filed since the find leaves the miss unkept; another
    // key's changes nothing.
    // order: relaxed — see Record::inserts.
    inserts = record->inserts.load(std::memory_order_relaxed);
    outcome = cache.contains(key)
                  ? Mark::kUnkept
                  : record->mark(hash, cache.capacity(), inserts);
  }
  if (outcome == Mark::kUnkept) {
    if (cache.unkept_ != nullptr) cache.unkept_->add();
    return {plan_layout(key, history), nullptr};
  }
  // The mark clears when the skeleton's token is released; should the
  // token's allocation throw, its deleter runs at once.
  std::shared_ptr<void> mark(nullptr,
                             [record, hash](void*) { record->unmark(hash); });
  auto plan = skeleton(key, history);
  plan->building = std::move(mark);
  return {std::move(plan), &cache};
}

}  // namespace sarbp::service
