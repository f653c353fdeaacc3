// Formation plans and the LRU plan cache — the serving layer's answer to
// the repeated-scene workload: many requests forming the same grid from
// the same collection geometry (different priorities, tenants, or sample
// data) share one precomputation.
//
// A FormationPlan captures everything the ASR sweep needs that depends
// only on *geometry*, not on sample values: the block decomposition, the
// per-pulse loop order (wavefront orientation), and the per-(block, pulse)
// strength-reduction tables of paper Fig. 3(b) line 02. Replaying a cached
// plan skips the table build entirely. The replay sweeps through the one
// ASR block sweep (backprojection/asr_sweep.h) with the prebuilt tables,
// and the tables come from its one table build, so a replay is
// bit-identical to the same kernel building its tables on the fly.
//
// The miss path builds the tables where the paper does, inside the
// parallel block loop: a miss hands make_plan_replay_group a skeleton
// (make_plan_skeleton — key, blocks, pulse order, empty table slots), each
// block-range task builds its blocks' tables (build_plan_block) just
// before sweeping them, and the finished plan enters the cache only when
// the whole group ran without an abort. lookup_plan is that one miss path,
// shared by the local service and the shard ranks.
//
// Cache keying: the shared reuse cache's PlanKey (service/reuse_cache.h)
// — grid geometry, region, ASR block size, pulse-geometry signature. The
// signature hashes per-pulse positions/start ranges plus the sampling
// constants — two collections with equal trajectories hit the same plan
// even when their sample payloads differ. The key holds the whole grid
// geometry, so the tables can be rebuilt from a plan's key and the
// request's pulses alone.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "asr/block_plan.h"
#include "asr/tables.h"
#include "backprojection/asr_sweep.h"
#include "backprojection/soa_tile.h"
#include "common/region.h"
#include "exec/task_group.h"
#include "exec/tile_backend.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/wavefront.h"
#include "obs/metrics.h"
#include "service/reuse_cache.h"
#include "sim/phase_history.h"

namespace sarbp::service {

/// Precomputed setup for one (grid, region, block size, pulse geometry).
struct FormationPlan {
  PlanKey key;
  std::vector<asr::BlockSpec> blocks;
  std::vector<geometry::LoopOrder> pulse_order;  ///< [pulses]
  /// Per-(block, pulse) tables, block-major: tables[b * pulses + p].
  std::vector<asr::BlockTables> tables;
  /// Resident size of the table buffers, fixed by the skeleton.
  std::size_t bytes = 0;

  [[nodiscard]] Index num_pulses() const {
    return static_cast<Index>(pulse_order.size());
  }

  /// Block `block`'s tables and the pulse order, as the ASR sweep reads
  /// them (bp::sweep_asr_block with the plan's region origin).
  [[nodiscard]] bp::PlanTables block_tables(std::size_t block) const {
    return {tables.data() + block * pulse_order.size(), pulse_order.data()};
  }
};

/// A plan without tables: the key, the blocks, the pulse order, `bytes`,
/// and one empty table slot per (block, pulse).
[[nodiscard]] std::shared_ptr<FormationPlan> make_plan_skeleton(
    const PlanKey& key, const sim::PhaseHistory& history);

/// Fills block `block`'s table slots for every pulse of `plan` with one
/// bp::build_asr_tables call (its pulses in lane groups, in pulse order).
/// build_formation_plan runs it over every block;
/// a cache-miss replay group runs it inside each task, just before the
/// block's sweep.
void build_plan_block(FormationPlan& plan, std::size_t block,
                      const sim::PhaseHistory& history);

/// Builds a whole plan up front: the skeleton plus build_plan_block over
/// every block. For callers that need the tables before any replay (the
/// pulse-scatter front end, benches, tests).
[[nodiscard]] std::shared_ptr<const FormationPlan> build_formation_plan(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history);

/// Replays a plan over `history` with the scalar sweep, serially, into
/// `tile` (shaped like the plan's region): the reference every replay
/// group on scalar backends matches byte for byte. `checkpoint` runs
/// before every block sweep; returning
/// false aborts the replay (cooperative cancellation / deadline expiry) and
/// the partially-formed tile must be discarded. Returns true on completion.
bool execute_plan(const FormationPlan& plan, const sim::PhaseHistory& history,
                  bp::SoaTile& tile, const std::function<bool()>& checkpoint);

class PlanCache;

/// Decomposes one plan replay into a TaskGroup for the tile executor: the
/// plan's blocks are the items of exec::make_formation_group, all swept
/// into the shared region-sized `tile`. Blocks cover disjoint pixel
/// rectangles, so concurrent tasks never write the same element and the
/// result is byte-identical to a serial execute_plan() no matter how tasks
/// are scheduled or stolen — the accumulation order per pixel is always
/// the plan's pulse order within that pixel's block.
///
/// `checkpoint` keeps execute_plan's granularity: it is polled before
/// every block sweep (inside tasks) and again before each task starts
/// (by the executor); the first false aborts the whole group.
/// `parallelism` and `tile_tasks` size the fan-out (tile_tasks 0 = auto).
/// `on_complete` runs on the worker that retires the last task — aborted
/// groups must discard the partially-swept tile there.
///
/// `[pulse_begin, pulse_end)` restricts the replay to a pulse range of the
/// plan (pulse_end == -1 means all pulses) — the pulse-scatter unit of the
/// sharded service: each shard replays its range of the same full-region
/// plan and the gather sums the partial tiles (shard-index order, the
/// documented reduction-order deviation from the single-node path).
///
/// `backends` (nullable) routes the blocks by the set's §5.3 dynamic
/// split, each backend sweeping its share with its kernel and feeding its
/// observed-rate tracker. Null sweeps every block with the scalar kernel,
/// untimed; a set holding only scalar backends is byte-identical to that
/// (disjoint block rectangles; same per-block pulse order).
///
/// `insert_into` (nullable) marks `plan` as a cache-miss skeleton
/// (lookup_plan): each block's tables are built for every pulse with
/// build_plan_block just before the block's sweep (outside the backend
/// timer, so the §5.3 split remains a sweep rate), and when the last task
/// retires without an abort the finished plan is inserted into
/// `insert_into`, before `on_complete` runs. The group is the skeleton's
/// only writer until then. Null replays the plan's tables as they are — a
/// cache hit, or a plan from build_formation_plan.
[[nodiscard]] exec::GroupPtr make_plan_replay_group(
    std::shared_ptr<const FormationPlan> plan,
    std::shared_ptr<const sim::PhaseHistory> history, int parallelism,
    Index tile_tasks, std::shared_ptr<bp::SoaTile> tile,
    std::function<bool()> checkpoint,
    std::function<void(exec::TaskGroup&)> on_complete,
    Index pulse_begin = 0, Index pulse_end = -1,
    std::shared_ptr<exec::BackendSet> backends = nullptr,
    PlanCache* insert_into = nullptr);

/// The service's plan cache: the shared reuse cache over formation plans,
/// each filed under its own key and table bytes, with the
/// service.plan_cache.* metrics. A capacity of 0 is the bench's cache-off
/// baseline. Plans are inserted only once built, so concurrent misses on
/// one key may build twice; the first insert wins.
class PlanCache : public ReuseCache<FormationPlan> {
 public:
  explicit PlanCache(std::size_t capacity, obs::Registry* metrics = nullptr)
      : ReuseCache(capacity, "service.plan_cache", metrics) {}

  void insert(Value plan) {
    const PlanKey key = plan->key;
    const std::size_t bytes = plan->bytes;
    ReuseCache::insert(key, std::move(plan), bytes);
  }
};

/// The plan one replay of (grid, region, block size, pulses) starts from.
struct PlanLookup {
  std::shared_ptr<const FormationPlan> plan;
  /// Null on a hit. On a miss, the cache the replay group inserts the
  /// finished skeleton into (make_plan_replay_group's `insert_into`).
  PlanCache* insert_into = nullptr;

  [[nodiscard]] bool hit() const { return insert_into == nullptr; }
};

/// The one cache-miss path of the local service and the shard ranks: the
/// cached plan on a hit, else a fresh skeleton for the replay group to
/// build and insert.
[[nodiscard]] PlanLookup lookup_plan(PlanCache& cache,
                                     const geometry::ImageGrid& grid,
                                     const Region& region, Index block_w,
                                     Index block_h,
                                     const sim::PhaseHistory& history);

}  // namespace sarbp::service
