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
// bit-identical to the same kernel building its tables on the fly. Each
// replay task sweeps its block into a per-thread block tile and adds the
// finished block straight into the job's image (make_plan_replay_group),
// so a job ends with no image-wide reduction on the last worker.
//
// A plan is built only for a geometry that recurs. The cache remembers the
// keys of its last `capacity` unkept misses, and lookup_plan has three
// outcomes: a hit; a kept miss, whose key is in that record; and an unkept
// miss, which records its key and returns a table-less plan (key, blocks,
// pulse order) that the replay group sweeps with tables built on the fly,
// one lane group at a time in per-thread scratch, as paper Fig. 3(b)
// builds them for one block's sweep only. An LRU of capacity C can hit a
// geometry only when it recurs within C misses, so the window is the
// capacity: a geometry's plan is built on its first repeat inside it and
// hit from its second, and capacity 0 never builds one.
//
// A kept miss builds the tables where the paper does, inside the parallel
// block loop: it hands make_plan_replay_group a skeleton (key, blocks,
// pulse order, table views), each task builds its block's tables
// (build_plan_block) just before sweeping them, and the finished plan
// enters the cache only when the whole group ran without an abort.
// lookup_plan is the one miss path, shared by the local service and the
// shard ranks.
//
// One build per key: a kept miss marks its key as building in the miss
// record until its plan is in the cache, its group aborts or its skeleton
// is released, and a lookup of a marked key is an unkept miss that leaves
// the record alone. Concurrent lookups of one recurring geometry thus
// build one plan; the others sweep on the fly, with the same bytes.
//
// Memory: a plan with tables is one allocation, an anonymous page mapping
// (its arena) holding its table views and then every table, block-major
// and in pulse order, so a block's replay streams its tables in sequence;
// it is unmapped with the plan's last user. Live plans are thus bounded by
// the cache capacity, the kept misses in flight and the plans that running
// replays still hold; an unkept miss maps nothing. A miss that aborts
// leaves the cache as it found it.
//
// Cache keying: the shared reuse cache's PlanKey (service/reuse_cache.h)
// — grid geometry, region, ASR block size, pulse-geometry signature. The
// signature hashes per-pulse positions/start ranges plus the sampling
// constants — two collections with equal trajectories hit the same plan
// even when their sample payloads differ. The key holds the whole grid
// geometry, so the tables can be rebuilt from a plan's key and the
// request's pulses alone. A 64-bit signature can collide, so each plan
// with tables keeps the pulse geometry they came from, and a hit needs the
// request's to match it bit for bit. The miss record holds key hashes: a
// collision there only turns an unkept miss into a kept one, which builds
// its own geometry, or a kept miss into an unkept one.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "asr/block_plan.h"
#include "asr/tables.h"
#include "backprojection/asr_sweep.h"
#include "backprojection/soa_tile.h"
#include "common/grid2d.h"
#include "common/page_mapping.h"
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

/// Precomputed setup for one (grid, region, block size, pulse geometry),
/// laid out by a kept miss (lookup_plan) or by build_formation_plan. An
/// unkept miss's plan is table-less: key, blocks and pulse order only, no
/// geometry, tables, arena or build mark.
struct FormationPlan {
  PlanKey key;
  /// The pulse geometry the tables are built from; a cache hit matches it.
  /// Empty on a table-less plan.
  PulseGeometry geometry;
  std::vector<asr::BlockSpec> blocks;
  std::vector<geometry::LoopOrder> pulse_order;  ///< [pulses]
  /// Per-(block, pulse) table views, block-major: tables[b * pulses + p].
  /// The views and the tables they view live in `arena`.
  std::span<asr::BlockTables> tables;
  /// Size of the tables, padding included, fixed by the skeleton: what the
  /// plan cache counts. The arena adds the views and page rounding.
  std::size_t bytes = 0;
  /// The plan's one allocation, unmapped with its last user.
  PageMapping arena;
  /// On a kept miss's skeleton (lookup_plan), its key's build mark in the
  /// cache's miss record. Resetting it clears the mark: the insert does
  /// once the plan is in the cache, an aborted group does, and so does
  /// releasing a skeleton that never ran.
  mutable std::shared_ptr<void> building;

  [[nodiscard]] Index num_pulses() const {
    return static_cast<Index>(pulse_order.size());
  }

  /// False on an unkept miss's plan, whose replay builds its tables on the
  /// fly.
  [[nodiscard]] bool has_tables() const { return !tables.empty(); }

  /// Block `block`'s tables and the pulse order, as the ASR sweep reads
  /// them (bp::sweep_asr_block with the plan's region origin).
  [[nodiscard]] bp::PlanTables block_tables(std::size_t block) const {
    return {tables.data() + block * pulse_order.size(), pulse_order.data()};
  }
};

/// Builds block `block`'s tables for every pulse of `plan` with one
/// bp::build_asr_tables call (its pulses in lane groups, in pulse order).
/// build_formation_plan runs it over every block; a kept miss's replay
/// group runs it inside each task, just before the block's sweep. Throws
/// PreconditionError on a table-less plan.
void build_plan_block(FormationPlan& plan, std::size_t block,
                      const sim::PhaseHistory& history);

/// Builds a whole plan up front, outside any cache: a skeleton plus
/// build_plan_block over every block. For benches and tests that need a
/// plan's tables before any replay.
[[nodiscard]] std::shared_ptr<const FormationPlan> build_formation_plan(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history);

/// Replays a plan over `history` with the scalar sweep, serially, into
/// `tile` (shaped like the plan's region): the reference every replay
/// group matches byte for byte, on any backend but a kGatherNoFma one and
/// without backends. `checkpoint` runs before every block sweep; returning
/// false aborts the replay (cooperative cancellation / deadline expiry) and
/// the partially-formed tile must be discarded. Returns true on completion.
/// Throws PreconditionError on a table-less plan.
bool execute_plan(const FormationPlan& plan, const sim::PhaseHistory& history,
                  bp::SoaTile& tile, const std::function<bool()>& checkpoint);

class PlanCache;

/// Where a plan replay adds its image: a region-sized image (the local
/// service, the shard ranks) or a region-sized SoaTile.
using ReplayOutput = std::variant<std::shared_ptr<Grid2D<CFloat>>,
                                  std::shared_ptr<bp::SoaTile>>;

/// Decomposes one plan replay into a TaskGroup for the tile executor: the
/// plan's blocks are the items of exec::make_formation_group. Each task
/// sweeps a block into its thread's block tile (one per thread, reused
/// from block to block) and, when the block is finished, adds the tile
/// into `out` at the block's place (paper §4.3's per-thread tiles; no
/// job-wide tile is reduced after the last task). Blocks cover disjoint
/// pixel rectangles, so concurrent tasks never write the same element, and
/// each pixel gets its block's additions in the plan's pulse order,
/// starting from +0, so a zeroed `out` receives execute_plan()'s bytes no
/// matter how tasks are scheduled or stolen (a sum started at +0 is never
/// -0, and +0 + x is x).
///
/// `checkpoint` keeps execute_plan's granularity: it is polled before
/// every block sweep (inside tasks) and again before each task starts
/// (by the executor); the first false aborts the whole group.
/// `tile_tasks` > 0 sets the task count; 0, what every caller passes,
/// cuts one task per block, at most exec::kDequeCapacity of them, so that
/// a job's tasks all fit the injecting worker's deque and idle workers
/// steal single blocks.
/// `on_complete` runs on the worker that retires the last task — aborted
/// groups must discard the partially-formed `out` there.
///
/// `[pulse_begin, pulse_end)` restricts the replay to a pulse range of the
/// plan (pulse_end == -1 means all pulses); the service and the shard
/// ranks replay all of them.
///
/// `backends` (nullable) routes the blocks by the set's §5.3 dynamic
/// split, each backend sweeping its share with its kernel and feeding its
/// observed-rate tracker. Null sweeps every block untimed with
/// AsrKernel{kAuto}, the widest vector rows. Every backend but a
/// kGatherNoFma one is byte-identical to that, and so is execute_plan
/// (disjoint block rectangles; same per-block pulse order; one ASR byte
/// lineage across kernels).
///
/// A table-less `plan` (an unkept miss) sweeps each block through the
/// on-the-fly bp::sweep_asr_block, its tables built a lane group at a
/// time into per-thread scratch: the same bytes as a replay of the built
/// plan with the same kernel.
///
/// `insert_into` (nullable) marks `plan` as a kept miss's skeleton
/// (lookup_plan): each block's tables are built for every pulse with
/// build_plan_block just before the block's sweep (outside the backend
/// timer, so the §5.3 split remains a sweep rate), and when the last task
/// retires without an abort the finished plan is inserted into
/// `insert_into`, before `on_complete` runs; an aborted group clears the
/// skeleton's build mark there instead. The group is the skeleton's only
/// writer until then. Null replays the plan's tables as they are — a cache
/// hit or a plan from build_formation_plan.
[[nodiscard]] exec::GroupPtr make_plan_replay_group(
    std::shared_ptr<const FormationPlan> plan,
    std::shared_ptr<const sim::PhaseHistory> history, int parallelism,
    Index tile_tasks, ReplayOutput out,
    std::function<bool()> checkpoint,
    std::function<void(exec::TaskGroup&)> on_complete,
    Index pulse_begin = 0, Index pulse_end = -1,
    std::shared_ptr<exec::BackendSet> backends = nullptr,
    PlanCache* insert_into = nullptr);

/// The plan one replay of (grid, region, block size, pulses) starts from:
/// a cached plan (a hit), a skeleton (a kept miss) or a table-less plan
/// (an unkept miss).
struct PlanLookup {
  std::shared_ptr<const FormationPlan> plan;
  /// A kept miss's cache, which the replay group inserts the finished
  /// skeleton into (make_plan_replay_group's `insert_into`); else null.
  PlanCache* insert_into = nullptr;

  [[nodiscard]] bool hit() const {
    return insert_into == nullptr && plan->has_tables();
  }
  [[nodiscard]] bool unkept() const { return !plan->has_tables(); }
};

/// The service's plan cache: the shared reuse cache over formation plans,
/// each filed under its own key and table bytes, with the
/// service.plan_cache.* metrics, plus the miss path's record (lookup_plan)
/// and its .unkept counter (misses swept on the fly). A capacity of 0 keeps
/// and builds no plan: the bench's cache-off baseline.
class PlanCache : public ReuseCache<FormationPlan> {
 public:
  explicit PlanCache(std::size_t capacity, obs::Registry* metrics = nullptr);

  /// The plan under `key` built from `history`'s pulse geometry, or null.
  /// A plan under the key built from other geometry (a signature
  /// collision) counts in service.plan_cache.collisions and is a miss.
  [[nodiscard]] Value find(const PlanKey& key,
                           const sim::PhaseHistory& history) {
    return ReuseCache::find(key, [&](const FormationPlan& plan) {
      return same_pulse_geometry(plan.geometry, history);
    });
  }

  /// Files `plan` (a kept miss's, once built), counts the insert, then
  /// clears the plan's build mark. A lookup after the clear finds the
  /// plan, and one that missed the cache before the insert finds the mark,
  /// or the count changed and the plan filed, and is unkept: no second
  /// build.
  void insert(const Value& plan);

 private:
  friend PlanLookup lookup_plan(PlanCache& cache,
                                const geometry::ImageGrid& grid,
                                const Region& region, Index block_w,
                                Index block_h,
                                const sim::PhaseHistory& history);

  /// The miss record, shared with the build marks it hands out.
  struct Record;

  std::shared_ptr<Record> record_;
  obs::Counter* unkept_ = nullptr;
};

/// The one cache-miss path of the local service and the shard ranks: the
/// cached plan on a hit; on a miss whose key the record holds, that no
/// other kept miss is building and whose plan no insert filed since the
/// find (a kept miss), a skeleton in a fresh arena, carrying the key's
/// build mark, for the caller to build and insert; on any other miss
/// (unkept), counted in .unkept, a table-less plan, and the key enters the
/// record unless it is being built. Other keys' inserts never make a miss
/// unkept. A lookup counts one hit or miss.
[[nodiscard]] PlanLookup lookup_plan(PlanCache& cache,
                                     const geometry::ImageGrid& grid,
                                     const Region& region, Index block_w,
                                     Index block_h,
                                     const sim::PhaseHistory& history);

}  // namespace sarbp::service
