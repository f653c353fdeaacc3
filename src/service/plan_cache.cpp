#include "service/plan_cache.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "backprojection/asr_sweep.h"
#include "backprojection/partition.h"
#include "common/check.h"
#include "common/timer.h"

namespace sarbp::service {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  // Byte-wise FNV-1a over the 8-byte word.
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t pulse_geometry_signature(const sim::PhaseHistory& history) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(history.num_pulses()));
  fnv_mix(h, static_cast<std::uint64_t>(history.samples_per_pulse()));
  fnv_mix(h, double_bits(history.bin_spacing()));
  fnv_mix(h, double_bits(history.wavenumber()));
  for (Index p = 0; p < history.num_pulses(); ++p) {
    const auto& meta = history.meta(p);
    fnv_mix(h, double_bits(meta.position.x));
    fnv_mix(h, double_bits(meta.position.y));
    fnv_mix(h, double_bits(meta.position.z));
    fnv_mix(h, double_bits(meta.start_range_m));
  }
  return h;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(k.grid_w));
  fnv_mix(h, static_cast<std::uint64_t>(k.grid_h));
  fnv_mix(h, double_bits(k.spacing));
  fnv_mix(h, double_bits(k.centre.x));
  fnv_mix(h, double_bits(k.centre.y));
  fnv_mix(h, double_bits(k.centre.z));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.x0));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.y0));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.width));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.height));
  fnv_mix(h, static_cast<std::uint64_t>(k.block_w));
  fnv_mix(h, static_cast<std::uint64_t>(k.block_h));
  fnv_mix(h, k.pulse_signature);
  return static_cast<std::size_t>(h);
}

PlanKey make_plan_key(const geometry::ImageGrid& grid, const Region& region,
                      Index block_w, Index block_h,
                      const sim::PhaseHistory& history) {
  PlanKey key;
  key.grid_w = grid.width();
  key.grid_h = grid.height();
  key.spacing = grid.spacing();
  key.centre = grid.centre();
  key.region = region;
  key.block_w = block_w;
  key.block_h = block_h;
  key.pulse_signature = pulse_geometry_signature(history);
  return key;
}

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
  return plan;
}

void build_plan_block(FormationPlan& plan, std::size_t block,
                      const sim::PhaseHistory& history) {
  const geometry::ImageGrid grid(plan.key.grid_w, plan.key.grid_h,
                                 plan.key.spacing, plan.key.centre);
  const auto pulses = static_cast<std::size_t>(plan.num_pulses());
  for (std::size_t p = 0; p < pulses; ++p) {
    bp::build_asr_tables(grid, plan.blocks[block], history,
                         static_cast<Index>(p), plan.pulse_order[p],
                         plan.tables[block * pulses + p]);
  }
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

/// exec-layer projection of a plan (see exec/tile_backend.h). Valid while
/// the plan lives — the task lambdas own a shared_ptr to it.
exec::PlanView plan_view(const FormationPlan& plan) {
  exec::PlanView view;
  view.blocks = plan.blocks.data();
  view.num_blocks = static_cast<Index>(plan.blocks.size());
  view.pulse_order = plan.pulse_order.data();
  view.num_pulses = plan.num_pulses();
  view.tables = plan.tables.data();
  view.region_x0 = plan.key.region.x0;
  view.region_y0 = plan.key.region.y0;
  return view;
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
  const exec::PlanView view = plan_view(plan);
  for (Index b = 0; b < view.num_blocks; ++b) {
    if (checkpoint && !checkpoint()) return false;
    view.sweep(b, history, 0, view.num_pulses, bp::AsrKernel{}, tile);
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
  ensure(parallelism >= 1, "make_plan_replay_group: parallelism >= 1");
  if (pulse_end < 0) pulse_end = plan->num_pulses();
  ensure(pulse_begin >= 0 && pulse_begin <= pulse_end &&
             pulse_end <= plan->num_pulses(),
         "make_plan_replay_group: bad pulse range");

  // A miss skeleton has not been published yet: the group's tasks are its
  // only users until the continuation below inserts it, so they may fill
  // the table slots (disjoint per block) of the plan they were handed.
  std::shared_ptr<FormationPlan> skeleton =
      insert_into != nullptr ? std::const_pointer_cast<FormationPlan>(plan)
                             : nullptr;

  // Contiguous block ranges, each with its task count: the whole plan on
  // the scalar sweep without backends; with them (§5.3), one range per
  // backend sized by the current dynamic split and sub-divided into tasks
  // in proportion to its share of the fan-out.
  struct Share {
    exec::TileBackend* backend;
    Index b0;
    Index b1;
    Index tasks;
  };
  const Index nblocks = static_cast<Index>(plan->blocks.size());
  const Index fanout = exec::fanout_tasks(tile_tasks, parallelism, nblocks);
  std::vector<Share> shares;
  if (backends == nullptr) {
    shares.push_back({nullptr, 0, nblocks, fanout});
  } else {
    const std::vector<Index> bounds = backends->partition(nblocks);
    for (int k = 0; k < backends->size(); ++k) {
      const Index k0 = bounds[static_cast<std::size_t>(k)];
      const Index k1 = bounds[static_cast<std::size_t>(k) + 1];
      if (k0 >= k1) continue;
      const Index ktasks = std::clamp<Index>(
          static_cast<Index>(std::llround(static_cast<double>(fanout) *
                                          static_cast<double>(k1 - k0) /
                                          static_cast<double>(nblocks))),
          1, k1 - k0);
      shares.push_back({&backends->backend(k), k0, k1, ktasks});
    }
  }

  // One task body. On a miss it builds each block's tables just before
  // sweeping the block. With a backend it times the sweeps (not the table
  // builds) and feeds the backend's observed-rate tracker, which steers the
  // *next* job's partition.
  std::vector<exec::TaskGroup::Task> tasks;
  for (const Share& share : shares) {
    for (Index ti = 0; ti < share.tasks; ++ti) {
      const Index b0 =
          share.b0 + bp::split_begin(share.b1 - share.b0, share.tasks, ti);
      const Index b1 =
          share.b0 + bp::split_begin(share.b1 - share.b0, share.tasks, ti + 1);
      tasks.push_back([plan, skeleton, history, tile, checkpoint, backends,
                       backend = share.backend, b0, b1, pulse_begin,
                       pulse_end](exec::TaskGroup& group) {
        const exec::PlanView view = plan_view(*plan);
        double sweep_seconds = 0.0;
        double backprojections = 0.0;
        for (Index b = b0; b < b1; ++b) {
          // Same granularity as execute_plan: one cancellation poll per
          // block sweep, not per task.
          if (checkpoint && !checkpoint()) {
            group.abort();
            return;
          }
          const auto bi = static_cast<std::size_t>(b);
          if (skeleton) build_plan_block(*skeleton, bi, *history);
          if (backend == nullptr) {
            view.sweep(b, *history, pulse_begin, pulse_end, bp::AsrKernel{},
                       *tile);
            continue;
          }
          const Timer timer;
          backend->sweep_block(view, *history, b, pulse_begin, pulse_end,
                               *tile);
          sweep_seconds += timer.seconds();
          const auto& block = plan->blocks[bi];
          backprojections += static_cast<double>(block.width) *
                             static_cast<double>(block.height) *
                             static_cast<double>(pulse_end - pulse_begin);
        }
        if (backend != nullptr) backend->record(backprojections, sweep_seconds);
      });
    }
  }

  if (skeleton) {
    // Insert-on-success: an aborted group leaves table slots unbuilt, so
    // only a group that ran every task publishes its plan — before the
    // caller's continuation resolves anything.
    on_complete = [plan, insert_into, on_complete = std::move(on_complete)](
                      exec::TaskGroup& group) {
      if (!group.aborted()) insert_into->insert(plan);
      if (on_complete) on_complete(group);
    };
  }
  return std::make_shared<exec::TaskGroup>(
      std::move(tasks), std::move(checkpoint), std::move(on_complete),
      "plan_replay");
}

PlanCache::PlanCache(std::size_t capacity, obs::Registry* metrics)
    : capacity_(capacity) {
  if constexpr (obs::kEnabled) {
    auto& reg = metrics != nullptr ? *metrics : obs::registry();
    hits_ = &reg.counter("service.plan_cache.hits");
    misses_ = &reg.counter("service.plan_cache.misses");
    evictions_ = &reg.counter("service.plan_cache.evictions");
    entries_gauge_ = &reg.gauge("service.plan_cache.entries");
    bytes_gauge_ = &reg.gauge("service.plan_cache.bytes");
  }
}

std::shared_ptr<const FormationPlan> PlanCache::find(const PlanKey& key) {
  {
    MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (hits_) hits_->add();
      return *it->second;
    }
  }
  if (misses_) misses_->add();
  return nullptr;
}

void PlanCache::insert(std::shared_ptr<const FormationPlan> plan) {
  if (capacity_ == 0) return;
  // Declared before the lock so the evicted plans' table buffers are
  // freed after it drops.
  std::list<std::shared_ptr<const FormationPlan>> evicted;
  MutexLock lock(mutex_);
  if (index_.find(plan->key) != index_.end()) return;
  lru_.push_front(std::move(plan));
  index_[lru_.front()->key] = lru_.begin();
  bytes_ += lru_.front()->bytes;
  while (lru_.size() > capacity_) {
    evicted.splice(evicted.end(), lru_, std::prev(lru_.end()));
    bytes_ -= evicted.back()->bytes;
    index_.erase(evicted.back()->key);
    if (evictions_) evictions_->add();
  }
  update_gauges_locked();
}

void PlanCache::update_gauges_locked() {
  if (entries_gauge_) entries_gauge_->set(static_cast<std::int64_t>(lru_.size()));
  if (bytes_gauge_) bytes_gauge_->set(static_cast<std::int64_t>(bytes_));
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t PlanCache::bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

void PlanCache::clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  update_gauges_locked();
}

PlanLookup lookup_plan(PlanCache& cache, const geometry::ImageGrid& grid,
                       const Region& region, Index block_w, Index block_h,
                       const sim::PhaseHistory& history) {
  const PlanKey key = make_plan_key(grid, region, block_w, block_h, history);
  if (auto plan = cache.find(key)) return {std::move(plan), nullptr};
  return {make_plan_skeleton(key, history), &cache};
}

}  // namespace sarbp::service
