// Job-service tests: planned-executor parity with the streaming scalar
// kernel, end-to-end image accuracy through the service, strict-priority
// scheduling, admission control, cancellation (queued and running),
// deadline expiry and a setup failure (each local and sharded),
// plan-cache behaviour via the obs counters (including
// that an aborted miss inserts no plan), drain with jobs in flight, and the
// request-trace JSON round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "backprojection/partition.h"
#include "exec/executor.h"
#include "exec/task_group.h"
#include "exec/tile_backend.h"
#include "common/check.h"
#include "common/snr.h"
#include "geometry/wavefront.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "service/trace.h"
#include "test_helpers.h"

namespace sarbp::service {
namespace {

using namespace std::chrono_literals;
using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

/// Tiny scenario shared by the lifecycle tests (the image content is
/// irrelevant there; only the accuracy tests use a larger one).
struct TinyFixture {
  SmallScenario scenario;
  std::shared_ptr<const sim::PhaseHistory> pulses;
};

TinyFixture make_tiny(std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 12;
  cfg.seed = seed;
  SmallScenario s = make_scenario(cfg);
  auto pulses = std::make_shared<const sim::PhaseHistory>(s.history);
  return {std::move(s), std::move(pulses)};
}

ImageFormationRequest tiny_request(
    const SmallScenario& s, std::shared_ptr<const sim::PhaseHistory> pulses,
    Priority pri = Priority::kNormal) {
  ImageFormationRequest req;
  req.grid = s.grid;
  req.pulses = std::move(pulses);
  req.asr_block_w = req.asr_block_h = 16;
  req.priority = pri;
  return req;
}

// --- plan build / execute ------------------------------------------------

TEST(FormationPlan, ExecuteMatchesStreamingScalarKernelExactly) {
  const auto [s, pulses] = make_tiny();
  const Region region{0, 0, s.grid.width(), s.grid.height()};

  const auto plan = build_formation_plan(s.grid, region, 16, 16, *pulses);
  bp::SoaTile planned(region.width, region.height);
  ASSERT_TRUE(execute_plan(*plan, *pulses, planned, nullptr));

  // Per-pulse scalar calls with the plan's own loop orders accumulate each
  // pixel's contributions in the same order the planned executor does, so
  // the two paths must agree bit for bit.
  bp::SoaTile streamed(region.width, region.height);
  for (Index p = 0; p < pulses->num_pulses(); ++p) {
    bp::backproject_asr_scalar(*pulses, s.grid, region, p, p + 1, 16, 16,
                               plan->pulse_order[static_cast<std::size_t>(p)],
                               streamed);
  }
  for (Index y = 0; y < region.height; ++y) {
    const float* pr = planned.row_re(y);
    const float* pi = planned.row_im(y);
    const float* sr = streamed.row_re(y);
    const float* si = streamed.row_im(y);
    for (Index x = 0; x < region.width; ++x) {
      ASSERT_EQ(pr[x], sr[x]) << "re mismatch at (" << x << "," << y << ")";
      ASSERT_EQ(pi[x], si[x]) << "im mismatch at (" << x << "," << y << ")";
    }
  }
}

TEST(FormationPlan, CheckpointFalseAbortsExecution) {
  const auto [s, pulses] = make_tiny();
  const Region region{0, 0, s.grid.width(), s.grid.height()};
  const auto plan = build_formation_plan(s.grid, region, 16, 16, *pulses);

  bp::SoaTile tile(region.width, region.height);
  int calls = 0;
  EXPECT_FALSE(execute_plan(*plan, *pulses, tile,
                            [&] { return ++calls <= 1; }));
  EXPECT_EQ(calls, 2);  // first block ran, second checkpoint aborted
}

TEST(FormationPlan, SignatureSeparatesDistinctGeometries) {
  const auto ha = make_tiny(7).pulses;
  const auto hb = make_tiny(8).pulses;
  EXPECT_NE(pulse_geometry_signature(*ha), pulse_geometry_signature(*hb));
  EXPECT_EQ(pulse_geometry_signature(*ha), pulse_geometry_signature(*ha));
}

// --- plan arenas ----------------------------------------------------------

/// A tile's floats as bits, each row's re then im: equal vectors are equal
/// bytes (-0 differs from +0).
std::vector<std::uint32_t> tile_bits(const bp::SoaTile& tile) {
  std::vector<std::uint32_t> bits;
  for (Index y = 0; y < tile.height(); ++y) {
    for (const float* row : {tile.row_re(y), tile.row_im(y)}) {
      for (Index x = 0; x < tile.width(); ++x) {
        bits.push_back(std::bit_cast<std::uint32_t>(row[x]));
      }
    }
  }
  return bits;
}

/// The nine arrays of a table set, live entries only.
std::vector<std::span<const float>> live_arrays(const asr::BlockTables& t) {
  return {t.bin_a, t.phi_re, t.phi_im, t.omega_re, t.omega_im,
          t.bin_b, t.bin_c,  t.psi_re, t.psi_im};
}

/// FNV-1a over every table's live entries, in table order.
std::uint64_t table_hash(const FormationPlan& plan) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const asr::BlockTables& t : plan.tables) {
    for (const auto array : live_arrays(t)) {
      for (const float v : array) {
        h = (h ^ std::bit_cast<std::uint32_t>(v)) * 1099511628211ULL;
      }
    }
  }
  return h;
}

/// Every table's live entries against the scalar build
/// (asr::expand_table_seeds, one table at a time, into a buffer of its
/// own), byte for byte.
void expect_scalar_table_bytes(const FormationPlan& plan,
                               const geometry::ImageGrid& grid,
                               const sim::PhaseHistory& h) {
  const auto pulses = static_cast<std::size_t>(plan.num_pulses());
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    for (std::size_t p = 0; p < pulses; ++p) {
      const asr::BlockTables& t = plan.tables[b * pulses + p];
      testing::OwnedTables ref(t.width, t.height);
      const bp::TableSlot slot{&h, static_cast<Index>(p), plan.pulse_order[p],
                               &ref.view};
      bp::build_asr_tables(grid, plan.blocks[b], {&slot, 1},
                           bp::SimdIsa::kScalar);
      const auto got = live_arrays(t);
      const auto want = live_arrays(ref.view);
      for (std::size_t a = 0; a < got.size(); ++a) {
        ASSERT_EQ(got[a].size(), want[a].size());
        ASSERT_EQ(std::memcmp(got[a].data(), want[a].data(),
                              got[a].size_bytes()),
                  0)
            << "block " << b << ", pulse " << p << ", array " << a;
      }
    }
  }
}

/// The plan swept as a replay group without backends sweeps it, with the
/// widest vector rows.
bp::SoaTile vector_replay(const FormationPlan& plan,
                          const sim::PhaseHistory& h) {
  const Region& region = plan.key.region;
  bp::SoaTile tile(region.width, region.height);
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    bp::sweep_asr_block(plan.blocks[b], region.x0, region.y0,
                        plan.block_tables(b),
                        bp::PulseRange{&h, 0, h.num_pulses()},
                        bp::AsrKernel{bp::SimdIsa::kAuto}, tile);
  }
  return tile;
}

void build_all_blocks(FormationPlan& plan, const sim::PhaseHistory& h) {
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    build_plan_block(plan, b, h);
  }
}

TEST(FormationPlan, ArenaTablesMatchTheScalarBuildOverStalePadding) {
  // Plans over regions whose edge blocks are 7, 17 and 33 pixels wide, on
  // pulses whose loop order alternates every 8 pulses. Every table's live
  // entries match the scalar build, and both the vector replay and
  // execute_plan give execute_plan's image, byte for byte; so they do
  // again once every float of the tables' storage is NaN and each block is
  // rebuilt in place: no kernel reads a table's padding (a row's tail is a
  // masked load) and no build writes it (store_first writes live entries
  // only), so the stale NaN there changes nothing.
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);
  const sim::PhaseHistory h =
      testing::alternate_loop_orders(s.history, s.grid.centre());
  struct Case {
    Region region;
    Index block_w;
    Index block_h;
  };
  const Case cases[] = {{{0, 0, 39, 49}, 32, 32},     // edges 7 x 17
                        {{10, 20, 81, 57}, 48, 40},   // edges 33 x 17
                        {{0, 0, 90, 71}, 57, 32}};    // edges 33 x 7
  for (const auto& [region, bw, bh] : cases) {
    SCOPED_TRACE(std::to_string(region.width) + "x" +
                 std::to_string(region.height) + " in " + std::to_string(bw) +
                 "x" + std::to_string(bh) + " blocks");
    auto plan = std::const_pointer_cast<FormationPlan>(
        build_formation_plan(s.grid, region, bw, bh, h));
    for (const auto order :
         {geometry::LoopOrder::kXInner, geometry::LoopOrder::kYInner}) {
      EXPECT_NE(
          std::count(plan->pulse_order.begin(), plan->pulse_order.end(), order),
          0);
    }
    expect_scalar_table_bytes(*plan, s.grid, h);
    bp::SoaTile reference(region.width, region.height);
    ASSERT_TRUE(execute_plan(*plan, h, reference, nullptr));
    const std::vector<std::uint32_t> expected = tile_bits(reference);
    EXPECT_EQ(tile_bits(vector_replay(*plan, h)), expected);

    // Each table's storage NaN, padding included and the views intact,
    // then every block rebuilt in place. A table's storage starts at bin_a.
    for (const asr::BlockTables& t : plan->tables) {
      std::fill_n(t.bin_a.data(),
                  asr::BlockTables::footprint_floats(t.width, t.height),
                  std::numeric_limits<float>::quiet_NaN());
    }
    build_all_blocks(*plan, h);
    // The edge tables' padding still holds the NaN.
    const asr::BlockTables& edge = plan->tables.back();
    ASSERT_NE(edge.width % 16, 0);
    EXPECT_TRUE(std::isnan(edge.bin_a.data()[edge.width]));
    expect_scalar_table_bytes(*plan, s.grid, h);
    bp::SoaTile again(region.width, region.height);
    ASSERT_TRUE(execute_plan(*plan, h, again, nullptr));
    EXPECT_EQ(tile_bits(again), expected);
    EXPECT_EQ(tile_bits(vector_replay(*plan, h)), expected);
  }
}

/// `base` with pulse 0's start range moved by `shift` metres: another pulse
/// geometry with the same blocks and loop orders, so a plan of the same
/// byte size.
std::shared_ptr<const sim::PhaseHistory> shifted(const sim::PhaseHistory& base,
                                                 double shift) {
  auto h = std::make_shared<sim::PhaseHistory>(base);
  h->meta(0).start_range_m += shift;
  return h;
}

/// Looks `h` up once, an unkept miss that the cache records, so that the
/// next lookup of `h` is a kept miss.
void record_once(PlanCache& cache, const SmallScenario& s,
                 const Region& region, const sim::PhaseHistory& h) {
  EXPECT_TRUE(lookup_plan(cache, s.grid, region, 8, 8, h).unkept());
}

/// One kept miss through lookup_plan (after one earlier lookup of `h`),
/// built and inserted as a replay group that ran every task does.
std::shared_ptr<const FormationPlan> miss_and_insert(
    PlanCache& cache, const SmallScenario& s, const Region& region,
    const sim::PhaseHistory& h) {
  record_once(cache, s, region, h);
  const PlanLookup lookup = lookup_plan(cache, s.grid, region, 8, 8, h);
  EXPECT_FALSE(lookup.hit());
  EXPECT_FALSE(lookup.unkept());
  build_all_blocks(*std::const_pointer_cast<FormationPlan>(lookup.plan), h);
  lookup.insert_into->insert(lookup.plan);
  return lookup.plan;
}

TEST(PlanCache, EvictedPlanKeepsItsTablesWhilePinned) {
  // A 2-plan cache through lookup_plan, every kept miss a new pulse
  // geometry: the cache never holds more than two plans, and an evicted
  // plan is released with its last user, so no more than two are alive.
  // A plan that a running replay holds (here the test) keeps its table
  // bytes while misses evict it.
  const auto [s, pulses] = make_tiny();
  const Region region{3, 5, 27, 21};
  PlanCache cache(2);
  std::vector<std::shared_ptr<const sim::PhaseHistory>> histories;
  std::vector<std::weak_ptr<const FormationPlan>> plans;
  const auto live = [&plans] {
    return std::count_if(plans.begin(), plans.end(),
                         [](const auto& w) { return !w.expired(); });
  };
  const auto miss = [&] {
    histories.push_back(
        shifted(*pulses, 0.25 * static_cast<double>(histories.size() + 1)));
    const auto plan = miss_and_insert(cache, s, region, *histories.back());
    plans.push_back(plan);
    return plan;
  };
  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE("miss " + std::to_string(i));
    (void)miss();
    EXPECT_LE(cache.size(), 2u);
    EXPECT_LE(live(), 2);
  }
  EXPECT_EQ(live(), 2);
  EXPECT_EQ(cache.size(), 2u);

  std::shared_ptr<const FormationPlan> pinned = plans.back().lock();
  ASSERT_NE(pinned, nullptr);
  const std::uint64_t pinned_hash = table_hash(*pinned);
  for (int i = 0; i < 3; ++i) {
    (void)miss();
    EXPECT_LE(cache.size(), 2u);
    EXPECT_LE(live(), 3);
  }
  EXPECT_EQ(table_hash(*pinned), pinned_hash);
  EXPECT_EQ(cache.find(pinned->key, *histories[5]), nullptr);
  pinned.reset();
  EXPECT_EQ(live(), 2);
}

TEST(PlanCache, ConcurrentMissesEachTakeAnArena) {
  // A job split in three parts (a grid-split job's bands) misses a 2-plan
  // cache three times at once, as the shard ranks do, on three distinct
  // keys: each kept miss maps its own arena, builds and inserts, and the
  // cache keeps the last two. A second such job does the same over the
  // first one's plans.
  const auto [s, pulses] = make_tiny();
  const Region region{1, 2, 29, 23};
  obs::Registry reg;
  PlanCache cache(2, &reg);
  double shift = 0.0;
  for (int job = 0; job < 2; ++job) {
    SCOPED_TRACE("job " + std::to_string(job));
    std::vector<std::pair<PlanLookup, std::shared_ptr<const sim::PhaseHistory>>>
        misses;
    for (int part = 0; part < 3; ++part) {
      auto h = shifted(*pulses, shift += 0.25);
      record_once(cache, s, region, *h);
      misses.emplace_back(lookup_plan(cache, s.grid, region, 8, 8, *h), h);
      EXPECT_FALSE(misses.back().first.hit());
      EXPECT_FALSE(misses.back().first.unkept());
    }
    std::set<const std::byte*> arenas;
    for (const auto& [lookup, h] : misses) {
      arenas.insert(lookup.plan->arena.data());
    }
    EXPECT_EQ(arenas.size(), 3u);
    EXPECT_EQ(arenas.count(nullptr), 0u);
    for (const auto& [lookup, h] : misses) {
      build_all_blocks(*std::const_pointer_cast<FormationPlan>(lookup.plan),
                       *h);
      lookup.insert_into->insert(lookup.plan);
    }
    EXPECT_EQ(cache.size(), 2u);
    for (std::size_t part = 1; part < 3; ++part) {
      const auto& [lookup, h] = misses[part];
      EXPECT_EQ(cache.find(lookup.plan->key, *h), lookup.plan);
    }
    if (obs::kEnabled) {
      EXPECT_EQ(reg.counter("service.plan_cache.inserts").value(),
                3u * static_cast<std::uint64_t>(job + 1));
    }
  }
}

TEST(PlanCache, AbortedMissLeavesTheCacheUntouched) {
  // With a full cache, a kept miss whose replay group aborts inserts
  // nothing and evicts nothing: both cached plans still hit. The group
  // cleared the key's build mark and the record still holds the key, so
  // the next lookup of it is kept again, while the aborted skeleton is
  // still held.
  const auto [s, pulses] = make_tiny();
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  PlanCache cache(2);
  const auto first = shifted(*pulses, 0.25);
  const auto second = shifted(*pulses, 0.5);
  const PlanKey first_key = miss_and_insert(cache, s, all, *first)->key;
  const PlanKey second_key = miss_and_insert(cache, s, all, *second)->key;
  ASSERT_EQ(cache.size(), 2u);

  record_once(cache, s, all, *pulses);
  const PlanLookup lookup = lookup_plan(cache, s.grid, all, 8, 8, *pulses);
  ASSERT_FALSE(lookup.hit());
  ASSERT_FALSE(lookup.unkept());
  EXPECT_EQ(cache.size(), 2u);
  exec::ExecOptions options;
  options.workers = 1;
  exec::TileExecutor executor(std::move(options));
  auto group = make_plan_replay_group(
      lookup.plan, pulses, 1, 0, std::make_shared<bp::SoaTile>(32, 32),
      [] { return false; }, nullptr, 0, -1, nullptr, lookup.insert_into);
  executor.run(group);
  EXPECT_TRUE(group->aborted());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(first_key, *first), nullptr);
  EXPECT_NE(cache.find(second_key, *second), nullptr);
  EXPECT_EQ(cache.find(lookup.plan->key, *pulses), nullptr);
  const PlanLookup again = lookup_plan(cache, s.grid, all, 8, 8, *pulses);
  EXPECT_FALSE(again.hit());
  EXPECT_FALSE(again.unkept());
}

TEST(PlanCache, OneBuildPerKey) {
  // A kept miss marks its key as building until its plan is in the cache.
  // While one kept skeleton is held unbuilt, every lookup of its key from
  // four threads is an unkept miss that leaves the miss record alone, so
  // the record still holds the key before it; once the plan is built and
  // inserted, every lookup hits it. One plan is built.
  const auto [s, pulses] = make_tiny();
  const Region region{2, 3, 26, 22};
  obs::Registry reg;
  PlanCache cache(2, &reg);
  const auto other = shifted(*pulses, 0.25);
  record_once(cache, s, region, *other);
  record_once(cache, s, region, *pulses);
  const PlanLookup kept = lookup_plan(cache, s.grid, region, 8, 8, *pulses);
  ASSERT_FALSE(kept.hit());
  ASSERT_FALSE(kept.unkept());

  constexpr int kThreads = 4;
  constexpr int kLookups = 8;
  const auto race = [&](auto&& each) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kLookups; ++i) {
          each(lookup_plan(cache, s.grid, region, 8, 8, *pulses));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };
  std::atomic<int> unkept{0};
  race([&](const PlanLookup& lookup) {
    if (lookup.unkept()) ++unkept;
  });
  EXPECT_EQ(unkept.load(), kThreads * kLookups);
  // Had those lookups recorded the key, `other` would have left the
  // two-key record; it is still there, so its lookup is kept.
  EXPECT_FALSE(lookup_plan(cache, s.grid, region, 8, 8, *other).unkept());

  build_all_blocks(*std::const_pointer_cast<FormationPlan>(kept.plan),
                   *pulses);
  cache.insert(kept.plan);
  std::atomic<int> hits{0};
  race([&](const PlanLookup& lookup) {
    if (lookup.hit() && lookup.plan == kept.plan) ++hits;
  });
  EXPECT_EQ(hits.load(), kThreads * kLookups);
  EXPECT_EQ(cache.size(), 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.inserts").value(), 1u);
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(),
              2u + kThreads * kLookups);
  }
}

TEST(PlanCache, RacingLookupsOfOneKeyBuildOnce) {
  // Round after round, a fresh geometry is looked up once, then four
  // threads look it up four times each at once, building and inserting
  // their kept misses' plans as replay groups do. Exactly one lookup per
  // round is kept: the others find the build mark, the plan, or an insert
  // that overtook their find. Without that last check, a lookup that
  // missed the cache just before the insert and read the record just after
  // the mark cleared built a second plan in about 0.3-0.9% of such rounds.
  const auto [s, pulses] = make_tiny();
  const Region region{0, 0, 8, 8};
  PlanCache cache(4);
  constexpr int kRounds = 400;
  constexpr int kThreads = 4;
  int rounds_not_built_once = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto h = shifted(*pulses, 0.001 * (round + 1));
    record_once(cache, s, region, *h);
    std::atomic<int> kept{0};
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        for (int i = 0; i < 4; ++i) {
          const PlanLookup lookup =
              lookup_plan(cache, s.grid, region, 8, 8, *h);
          if (lookup.hit() || lookup.unkept()) continue;
          ++kept;
          build_all_blocks(
              *std::const_pointer_cast<FormationPlan>(lookup.plan), *h);
          lookup.insert_into->insert(lookup.plan);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (kept.load() != 1) ++rounds_not_built_once;
  }
  EXPECT_EQ(rounds_not_built_once, 0);
}

TEST(PlanCache, OtherKeysInsertsLeaveARecurringMissKept) {
  // One thread files prebuilt plans of two other keys again and again
  // (each insert counts, though the keys are already filed) while this one
  // looks a recurring key up and drops each kept skeleton unbuilt, which
  // clears its mark. An insert of another key between a lookup's find and
  // its mark only makes the lookup mark again, so every lookup is a kept
  // miss; an unkept one would build no plan for a geometry that recurs.
  const auto [s, pulses] = make_tiny();
  const Region region{0, 0, 8, 8};
  PlanCache cache(4);
  std::vector<std::shared_ptr<const FormationPlan>> others;
  for (const double shift : {0.25, 0.5}) {
    others.push_back(build_formation_plan(s.grid, region, 8, 8,
                                          *shifted(*pulses, shift)));
    cache.insert(others.back());
  }
  record_once(cache, s, region, *pulses);
  constexpr int kInserts = 100000;
  std::atomic<bool> inserting{true};
  std::latch start(2);
  std::thread inserter([&] {
    start.arrive_and_wait();
    for (int i = 0; i < kInserts; ++i) cache.insert(others[i % 2]);
    inserting.store(false);
  });
  start.arrive_and_wait();
  int lookups = 0;
  int not_kept = 0;
  while (inserting.load()) {
    const PlanLookup lookup = lookup_plan(cache, s.grid, region, 8, 8, *pulses);
    ++lookups;
    if (lookup.hit() || lookup.unkept()) ++not_kept;
  }
  inserter.join();
  EXPECT_GT(lookups, 0);
  EXPECT_EQ(not_kept, 0) << "of " << lookups << " lookups";
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, DroppedSkeletonClearsItsMark) {
  // A kept skeleton released unbuilt, as when the job's tile allocation
  // throws after the lookup, clears its key's build mark: lookups of the
  // key are unkept while it is held, and the next one after it drops is
  // kept.
  const auto [s, pulses] = make_tiny();
  const Region region{4, 2, 23, 27};
  PlanCache cache(2);
  record_once(cache, s, region, *pulses);
  std::optional<PlanLookup> kept =
      lookup_plan(cache, s.grid, region, 8, 8, *pulses);
  ASSERT_FALSE(kept->hit());
  ASSERT_FALSE(kept->unkept());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(lookup_plan(cache, s.grid, region, 8, 8, *pulses).unkept());
  }
  kept.reset();
  const PlanLookup again = lookup_plan(cache, s.grid, region, 8, 8, *pulses);
  EXPECT_FALSE(again.hit());
  EXPECT_FALSE(again.unkept());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, OnlyARecurringGeometryBuildsAPlan) {
  // A 2-plan cache remembers the keys of its last two unkept misses. A
  // geometry looked up once is an unkept miss: a table-less plan, no arena,
  // nothing cached. Looked up again inside that window it is a kept miss,
  // whose plan is built and inserted, and it hits from then on.
  const auto [s, pulses] = make_tiny();
  const Region region{2, 1, 25, 27};
  obs::Registry reg;
  PlanCache cache(2, &reg);
  const auto lookup = [&](const sim::PhaseHistory& h) {
    return lookup_plan(cache, s.grid, region, 8, 8, h);
  };
  std::vector<std::shared_ptr<const sim::PhaseHistory>> once;
  for (int i = 0; i < 6; ++i) {
    once.push_back(shifted(*pulses, 0.25 * (i + 1)));
    const PlanLookup miss = lookup(*once.back());
    EXPECT_TRUE(miss.unkept());
    EXPECT_FALSE(miss.hit());
    EXPECT_EQ(miss.insert_into, nullptr);
    EXPECT_FALSE(miss.plan->has_tables());
    EXPECT_EQ(miss.plan->arena.size(), 0u);
    EXPECT_EQ(miss.plan->bytes, 0u);
    EXPECT_TRUE(miss.plan->geometry.empty());
    EXPECT_EQ(miss.plan->blocks.size(), 16u);
    EXPECT_EQ(miss.plan->num_pulses(), pulses->num_pulses());
  }
  EXPECT_EQ(cache.size(), 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 6u);
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 6u);
    EXPECT_EQ(reg.counter("service.plan_cache.inserts").value(), 0u);
  }

  // Twice in a row: kept on the second lookup, hit on the third.
  const auto twice = shifted(*pulses, 5.0);
  EXPECT_TRUE(lookup(*twice).unkept());
  const PlanLookup kept = lookup(*twice);
  EXPECT_FALSE(kept.unkept());
  EXPECT_FALSE(kept.hit());
  ASSERT_EQ(kept.insert_into, &cache);
  ASSERT_TRUE(kept.plan->has_tables());
  build_all_blocks(*std::const_pointer_cast<FormationPlan>(kept.plan), *twice);
  cache.insert(kept.plan);
  const PlanLookup hit = lookup(*twice);
  EXPECT_TRUE(hit.hit());
  EXPECT_EQ(hit.plan, kept.plan);

  // A repeat after one other unkept miss is kept; after two it has left
  // the window and is unkept again.
  const auto a = shifted(*pulses, 6.0);
  const auto b = shifted(*pulses, 7.0);
  const auto c = shifted(*pulses, 8.0);
  const auto d = shifted(*pulses, 9.0);
  EXPECT_TRUE(lookup(*a).unkept());
  EXPECT_TRUE(lookup(*b).unkept());
  EXPECT_FALSE(lookup(*a).unkept());  // b came since
  EXPECT_TRUE(lookup(*c).unkept());
  EXPECT_TRUE(lookup(*d).unkept());
  EXPECT_TRUE(lookup(*b).unkept());  // c and d came since
  EXPECT_EQ(cache.size(), 1u);

  // Capacity 0 never builds a plan.
  obs::Registry off_reg;
  PlanCache off(0, &off_reg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(lookup_plan(off, s.grid, region, 8, 8, *twice).unkept());
  }
  EXPECT_EQ(off.size(), 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(off_reg.counter("service.plan_cache.unkept").value(), 3u);
  }
}

TEST(FormationPlan, TableLessPlanRefusesBuildAndExecute) {
  const auto [s, pulses] = make_tiny();
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  PlanCache cache(2);
  const PlanLookup lookup = lookup_plan(cache, s.grid, all, 16, 16, *pulses);
  ASSERT_TRUE(lookup.unkept());
  auto plan = std::const_pointer_cast<FormationPlan>(lookup.plan);
  EXPECT_THROW(build_plan_block(*plan, 0, *pulses), PreconditionError);
  bp::SoaTile tile(all.width, all.height);
  EXPECT_THROW((void)execute_plan(*plan, *pulses, tile, nullptr),
               PreconditionError);
}

TEST(FormationPlan, TableLessReplayMatchesTheBuiltPlan) {
  // An unkept miss's replay builds each block's tables on the fly. Over
  // edge blocks 7, 17 and 33 pixels wide and loop orders that alternate
  // every 8 pulses, it gives the built plan's bytes: execute_plan's over
  // the full pulse range and the ranks' sub-ranges, without a backend and
  // with a SIMD backend, and the built plan's own replay on a kGatherNoFma
  // backend.
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);
  const auto h = std::make_shared<const sim::PhaseHistory>(
      testing::alternate_loop_orders(s.history, s.grid.centre()));
  obs::Registry reg;
  exec::ExecOptions options;
  options.workers = 2;
  options.metrics = &reg;
  exec::TileExecutor executor(std::move(options));
  const auto backend = [&reg](bp::KernelVariant variant) {
    exec::BackendSpec spec;
    spec.kind = exec::BackendSpec::Kind::kHostSimd;
    spec.variant = variant;
    return std::make_shared<exec::BackendSet>(
        std::vector<exec::BackendSpec>{spec}, 0.5, &reg);
  };
  const auto replay = [&](std::shared_ptr<const FormationPlan> plan,
                          Index begin, Index end,
                          std::shared_ptr<exec::BackendSet> backends) {
    const Region& region = plan->key.region;
    auto tile = std::make_shared<bp::SoaTile>(region.width, region.height);
    auto group = make_plan_replay_group(std::move(plan), h, 2, 0, tile,
                                        nullptr, nullptr, begin, end,
                                        std::move(backends));
    executor.run(group);
    EXPECT_FALSE(group->aborted());
    return tile_bits(*tile);
  };
  struct Case {
    Region region;
    Index block_w;
    Index block_h;
  };
  const Case cases[] = {{{0, 0, 39, 49}, 32, 32},     // edges 7 x 17
                        {{10, 20, 81, 57}, 48, 40},   // edges 33 x 17
                        {{0, 0, 90, 71}, 57, 32}};    // edges 33 x 7
  const bool simd = bp::asr_simd_available();
  for (const auto& [region, bw, bh] : cases) {
    SCOPED_TRACE(std::to_string(region.width) + "x" +
                 std::to_string(region.height) + " in " + std::to_string(bw) +
                 "x" + std::to_string(bh) + " blocks");
    const auto built = build_formation_plan(s.grid, region, bw, bh, *h);
    PlanCache cache(2);
    const PlanLookup lookup = lookup_plan(cache, s.grid, region, bw, bh, *h);
    ASSERT_TRUE(lookup.unkept());
    EXPECT_EQ(lookup.plan->blocks.size(), built->blocks.size());
    EXPECT_EQ(lookup.plan->pulse_order, built->pulse_order);

    bp::SoaTile reference(region.width, region.height);
    ASSERT_TRUE(execute_plan(*built, *h, reference, nullptr));
    const std::vector<std::uint32_t> expected = tile_bits(reference);
    EXPECT_EQ(replay(lookup.plan, 0, -1, nullptr), expected);
    if (simd) {
      EXPECT_EQ(replay(lookup.plan, 0, -1, backend(bp::KernelVariant::kAuto)),
                expected);
    }
    const Index pulses = h->num_pulses();
    for (Index part = 0; part < 3; ++part) {
      const Index begin = bp::split_begin(pulses, 3, part);
      const Index end = bp::split_begin(pulses, 3, part + 1);
      SCOPED_TRACE("pulses [" + std::to_string(begin) + ", " +
                   std::to_string(end) + ")");
      EXPECT_EQ(replay(lookup.plan, begin, end, nullptr),
                replay(built, begin, end, nullptr));
      if (simd) {
        EXPECT_EQ(
            replay(lookup.plan, begin, end, backend(bp::KernelVariant::kAuto)),
            replay(built, begin, end, nullptr));
      }
    }
    if (simd) {
      EXPECT_EQ(
          replay(lookup.plan, 0, -1, backend(bp::KernelVariant::kGatherNoFma)),
          replay(built, 0, -1, backend(bp::KernelVariant::kGatherNoFma)));
    }
  }
}

TEST(PlanReplay, OneTaskPerBlockUpToTheDequeCapacity) {
  // tile_tasks 0 cuts a replay into one task per block, but never more
  // tasks than the executor's deque holds, so an injection runs none of
  // them inline. 33 x 33 one-pixel blocks are 1,089, past 1,024.
  const auto [s, pulses] = make_tiny();
  const Region few{0, 0, 32, 32};
  const Region many{0, 0, 33, 33};
  obs::Registry reg;
  exec::ExecOptions options;
  options.workers = 2;
  options.metrics = &reg;
  exec::TileExecutor executor(std::move(options));
  const auto tasks_and_bits = [&](const Region& region, Index block) {
    const auto plan =
        build_formation_plan(s.grid, region, block, block, *pulses);
    auto tile = std::make_shared<bp::SoaTile>(region.width, region.height);
    auto group = make_plan_replay_group(plan, pulses, 2, 0, tile, nullptr,
                                        nullptr);
    const std::size_t tasks = group->units().size();
    executor.run(group);
    EXPECT_FALSE(group->aborted());
    bp::SoaTile reference(region.width, region.height);
    EXPECT_TRUE(execute_plan(*plan, *pulses, reference, nullptr));
    EXPECT_EQ(tile_bits(*tile), tile_bits(reference));
    return std::make_pair(plan->blocks.size(), tasks);
  };
  const auto [few_blocks, few_tasks] = tasks_and_bits(few, 16);
  EXPECT_EQ(few_blocks, 4u);
  EXPECT_EQ(few_tasks, 4u);
  const auto [many_blocks, many_tasks] = tasks_and_bits(many, 1);
  EXPECT_EQ(many_blocks, 1089u);
  EXPECT_EQ(many_tasks, exec::kDequeCapacity);
}

TEST(PlanCache, RacingLookupsOfRecurringGeometries) {
  // Four threads look up three geometries on a 2-plan cache, building and
  // inserting their kept misses' plans as replay groups do. Every lookup
  // ends as exactly one of hit, kept miss or unkept miss; a hit replays
  // its own geometry; the cache never holds more than two plans.
  const auto [s, pulses] = make_tiny();
  const Region region{1, 1, 30, 30};
  obs::Registry reg;
  PlanCache cache(2, &reg);
  std::vector<std::shared_ptr<const sim::PhaseHistory>> geometries;
  for (int g = 0; g < 3; ++g) {
    geometries.push_back(shifted(*pulses, 0.5 * (g + 1)));
  }
  constexpr int kThreads = 4;
  constexpr int kLookups = 24;
  std::atomic<int> hits{0};
  std::atomic<int> kept{0};
  std::atomic<int> unkept{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookups; ++i) {
        const sim::PhaseHistory& h =
            *geometries[static_cast<std::size_t>((i + t) % 3)];
        const PlanLookup lookup = lookup_plan(cache, s.grid, region, 8, 8, h);
        if (lookup.hit()) {
          ++hits;
          if (!same_pulse_geometry(lookup.plan->geometry, h)) ++wrong;
        } else if (lookup.unkept()) {
          ++unkept;
        } else {
          ++kept;
          build_all_blocks(*std::const_pointer_cast<FormationPlan>(lookup.plan),
                           h);
          lookup.insert_into->insert(lookup.plan);
        }
        if (cache.size() > 2) ++wrong;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(hits + kept + unkept, kThreads * kLookups);
  EXPECT_GE(unkept.load(), 1);
  EXPECT_LE(cache.size(), 2u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(),
              static_cast<std::uint64_t>(hits.load()));
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(),
              static_cast<std::uint64_t>(unkept.load()));
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(),
              static_cast<std::uint64_t>(kept.load() + unkept.load()));
  }
}

// --- service lifecycle ---------------------------------------------------

TEST(Service, RejectsNonFiniteSamples) {
  // One NaN or infinite sample would turn pixels non-finite and the job
  // would still end DONE, so submit turns the request away. The same
  // pulses with finite samples form an image with every pixel finite.
  ScenarioConfig cfg;
  cfg.image = 48;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  const auto request = [&](const sim::PhaseHistory& h) {
    ImageFormationRequest req;
    req.grid = s.grid;
    req.pulses = std::make_shared<const sim::PhaseHistory>(h);
    req.asr_block_w = req.asr_block_h = 16;
    return req;
  };
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float v : bad) {
    sim::PhaseHistory h = s.history;
    h.pulse(1)[17] = CFloat{v, 0.5f};
    const SubmitOutcome outcome = service.submit(request(h));
    EXPECT_FALSE(outcome.admitted()) << v;
    EXPECT_EQ(outcome.reject, RejectReason::kInvalidRequest) << v;
  }
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.invalid_request").value(), 3u);
  }
  auto clean = service.submit(request(s.history));
  ASSERT_TRUE(clean.admitted());
  const JobResult& result = clean.handle->wait();
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  for (Index y = 0; y < result.image.height(); ++y) {
    for (Index x = 0; x < result.image.width(); ++x) {
      ASSERT_TRUE(std::isfinite(result.image.at(x, y).real()) &&
                  std::isfinite(result.image.at(x, y).imag()))
          << x << "," << y;
    }
  }
}

TEST(Service, FormsImageMatchingReference) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 24;
  SmallScenario s = make_scenario(cfg);
  const auto pulses = std::make_shared<const sim::PhaseHistory>(s.history);

  Grid2D<CDouble> reference(cfg.image, cfg.image);
  const Region all{0, 0, cfg.image, cfg.image};
  bp::backproject_ref(*pulses, s.grid, all, 0, pulses->num_pulses(),
                      reference);

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  ImageFormationRequest req;
  req.grid = s.grid;
  req.pulses = pulses;
  req.asr_block_w = req.asr_block_h = 32;
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_EQ(result.image.width(), cfg.image);
  EXPECT_EQ(result.image.height(), cfg.image);
  EXPECT_GT(snr_db(result.image, reference), 45.0);
}

TEST(Service, StrictPriorityWithFifoWithinClass) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;  // stage the whole batch before any job runs
  sc.metrics = &reg;
  ImageFormationService service(sc);

  auto low1 = service.submit(tiny_request(s, pulses, Priority::kLow));
  auto low2 = service.submit(tiny_request(s, pulses, Priority::kLow));
  auto normal = service.submit(tiny_request(s, pulses, Priority::kNormal));
  auto high = service.submit(tiny_request(s, pulses, Priority::kHigh));
  ASSERT_TRUE(low1.admitted() && low2.admitted() && normal.admitted() &&
              high.admitted());

  service.resume();
  service.drain();

  ASSERT_EQ(high.handle->result().state, JobState::kDone);
  ASSERT_EQ(normal.handle->result().state, JobState::kDone);
  ASSERT_EQ(low1.handle->result().state, JobState::kDone);
  ASSERT_EQ(low2.handle->result().state, JobState::kDone);

  // Completion order: high before normal before both lows; FIFO among lows.
  EXPECT_LT(high.handle->result().completion_index,
            normal.handle->result().completion_index);
  EXPECT_LT(normal.handle->result().completion_index,
            low1.handle->result().completion_index);
  EXPECT_LT(low1.handle->result().completion_index,
            low2.handle->result().completion_index);
}

TEST(Service, AdmissionRejectsWhenPendingSetFull) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.max_pending = 2;
  sc.start_paused = true;  // nothing dequeues, so the pending set stays full
  sc.metrics = &reg;
  ImageFormationService service(sc);

  auto a = service.submit(tiny_request(s, pulses));
  auto b = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(a.admitted() && b.admitted());

  auto c = service.submit(tiny_request(s, pulses));
  EXPECT_FALSE(c.admitted());
  EXPECT_EQ(c.reject, RejectReason::kQueueFull);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.queue_full").value(), 1u);
  }

  service.resume();
  service.drain();
  EXPECT_EQ(a.handle->result().state, JobState::kDone);
  EXPECT_EQ(b.handle->result().state, JobState::kDone);
}

TEST(Service, RejectReasonNamesCoverEveryEnumerator) {
  // Guard rail for the metric namespace: every reject reason must map to a
  // distinct, non-placeholder name (the names become counter suffixes).
  std::set<std::string> names;
  for (int r = 0; r < kNumRejectReasons; ++r) {
    const std::string name = reject_reason_name(static_cast<RejectReason>(r));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumRejectReasons));
  EXPECT_EQ(names.count("quota_exceeded"), 1u);
}

TEST(Service, TenantQuotaRejectsExcessQueuedJobs) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;  // nothing dequeues, so queued counts are exact
  sc.tenant_policies["alpha"].quota = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  ImageFormationRequest first = tiny_request(s, pulses);
  first.tenant = "alpha";
  auto a = service.submit(std::move(first));
  ASSERT_TRUE(a.admitted());

  ImageFormationRequest second = tiny_request(s, pulses);
  second.tenant = "alpha";
  auto b = service.submit(std::move(second));
  EXPECT_FALSE(b.admitted());
  EXPECT_EQ(b.reject, RejectReason::kQuotaExceeded);

  // The quota is per tenant: another tenant (and the default unlimited
  // policy) is unaffected.
  ImageFormationRequest other = tiny_request(s, pulses);
  other.tenant = "beta";
  auto c = service.submit(std::move(other));
  ASSERT_TRUE(c.admitted());

  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.quota_exceeded").value(), 1u);
    EXPECT_EQ(reg.counter("tenant.alpha.rejected.quota").value(), 1u);
  }

  service.resume();
  service.drain();
  EXPECT_EQ(a.handle->result().state, JobState::kDone);
  EXPECT_EQ(c.handle->result().state, JobState::kDone);
}

TEST(Service, WeightedFairSchedulingInterleavesByWeight) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;  // sequential claims make the interleave deterministic
  sc.start_paused = true;
  sc.tenant_policies["alpha"].weight = 2.0;
  sc.tenant_policies["beta"].weight = 1.0;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  // Equal-cost jobs: start-time fair queuing gives alpha finish tags at
  // 0.5c, 1.0c, 1.5c, 2.0c and beta at 1.0c, 2.0c; ties break toward the
  // lexicographically smaller tenant. Expected claim order: A A B A A B.
  std::vector<std::shared_ptr<JobHandle>> alpha, beta;
  for (int i = 0; i < 4; ++i) {
    ImageFormationRequest req = tiny_request(s, pulses);
    req.tenant = "alpha";
    auto outcome = service.submit(std::move(req));
    ASSERT_TRUE(outcome.admitted());
    alpha.push_back(std::move(outcome.handle));
  }
  for (int i = 0; i < 2; ++i) {
    ImageFormationRequest req = tiny_request(s, pulses);
    req.tenant = "beta";
    auto outcome = service.submit(std::move(req));
    ASSERT_TRUE(outcome.admitted());
    beta.push_back(std::move(outcome.handle));
  }

  service.resume();
  service.drain();

  std::vector<std::uint64_t> order;
  for (const auto& h : {alpha[0], alpha[1], beta[0], alpha[2], alpha[3],
                        beta[1]}) {
    ASSERT_EQ(h->result().state, JobState::kDone);
    order.push_back(h->result().completion_index);
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i])
        << "weighted-fair order broke between positions " << i - 1 << " and "
        << i;
  }
}

TEST(Service, InvalidRequestsRejectedWithReason) {
  // Each bad input is refused at submit, locally and through the shards:
  // a null history, a non-null history of zero pulses, a region starting
  // off the grid, one running past its edge, and two whose end coordinate
  // overflows Index: summed, {0, INT64_MAX - 1, 3, 2}'s end wraps negative,
  // so an "end <= grid" check would admit it.
  const auto [s, pulses] = make_tiny();
  const auto no_pulses = std::make_shared<const sim::PhaseHistory>(
      0, pulses->samples_per_pulse(), pulses->bin_spacing(),
      pulses->wavenumber());
  constexpr Index kMax = std::numeric_limits<Index>::max();
  for (const int shards : {1, 2}) {
    obs::Registry reg;
    ServiceConfig sc;
    sc.workers = 1;
    sc.shards = shards;
    sc.metrics = &reg;
    ImageFormationService service(sc);

    std::vector<ImageFormationRequest> bad(6, tiny_request(s, pulses));
    bad[0].pulses = nullptr;
    bad[1].pulses = no_pulses;
    bad[2].region = Region{-4, 0, 8, 8};
    bad[3].region = Region{0, 0, s.grid.width() + 1, 4};
    bad[4].region = Region{0, kMax - 1, 3, 2};
    bad[5].region = Region{kMax - 1, 0, 2, 3};
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(service.submit(std::move(bad[i])).reject,
                RejectReason::kInvalidRequest)
          << "input " << i << ", " << shards << " shard(s)";
    }
    if (obs::kEnabled) {
      EXPECT_EQ(reg.counter("service.rejected.invalid_request").value(),
                bad.size());
    }
  }
}

// --- lifecycle, local and sharded ----------------------------------------

enum class Mode { kLocal, kSharded };

/// Names the mode in the test names ctest lists (".../local").
void PrintTo(Mode mode, std::ostream* os) {
  *os << (mode == Mode::kLocal ? "local" : "sharded");
}

/// Runs a lifecycle test on the local executor and on 2 shards whose
/// threshold splits the 32-px tiny job into two 16-px bands, so both modes
/// must end a job in the same state with the same error.
class ServiceLifecycle : public ::testing::TestWithParam<Mode> {
 protected:
  [[nodiscard]] ServiceConfig in_mode(ServiceConfig sc) const {
    if (GetParam() == Mode::kSharded) {
      sc.shards = 2;
      sc.shard_small_pixels = 16;
    }
    return sc;
  }
};

INSTANTIATE_TEST_SUITE_P(Modes, ServiceLifecycle,
                         ::testing::Values(Mode::kLocal, Mode::kSharded));

TEST_P(ServiceLifecycle, CancelQueuedJobResolvesImmediately) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;
  sc.metrics = &reg;
  ImageFormationService service(in_mode(sc));

  auto outcome = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(outcome.admitted());
  EXPECT_EQ(outcome.handle->state(), JobState::kQueued);
  EXPECT_TRUE(outcome.handle->cancel());
  EXPECT_EQ(outcome.handle->state(), JobState::kCancelled);
  EXPECT_FALSE(outcome.handle->cancel());  // already terminal
  // A live job queued behind the cancelled one must still run, with no
  // further submit or drain to wake the pool.
  auto live = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(live.admitted());
  std::this_thread::sleep_for(20ms);  // the pool parks; resume's wake is last

  service.resume();
  ASSERT_TRUE(live.handle->wait_for(30s))
      << "stranded behind the cancelled job";
  EXPECT_EQ(live.handle->result().state, JobState::kDone);
  service.drain();
  EXPECT_EQ(outcome.handle->result().state, JobState::kCancelled);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.jobs.cancelled").value(), 1u);
  }
}

TEST_P(ServiceLifecycle, CancelRunningJobStopsAtBlockCheckpoint) {
  const auto [s, pulses] = make_tiny();

  std::mutex m;
  std::condition_variable cv;
  bool at_checkpoint = false;
  bool release = false;

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  sc.inter_block_hook = [&] {
    std::unique_lock lock(m);
    if (!at_checkpoint) {
      at_checkpoint = true;
      cv.notify_all();
    }
    cv.wait(lock, [&] { return release; });
  };
  ImageFormationService service(in_mode(sc));

  auto outcome = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(outcome.admitted());
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return at_checkpoint; });
  }
  EXPECT_EQ(outcome.handle->state(), JobState::kRunning);
  EXPECT_TRUE(outcome.handle->cancel());
  {
    std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();

  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.error, "cancelled while running");
  service.drain();
}

TEST_P(ServiceLifecycle, DeadlineExpiryWhileQueued) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;
  sc.metrics = &reg;
  ImageFormationService service(in_mode(sc));

  auto req = tiny_request(s, pulses);
  req.deadline = std::chrono::steady_clock::now() - 1ms;  // already missed
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  // A live job queued behind the expired one must still run, with no
  // further submit or drain to wake the pool.
  auto live = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(live.admitted());
  std::this_thread::sleep_for(20ms);  // the pool parks; resume's wake is last

  service.resume();
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.error, "deadline passed while queued");
  ASSERT_TRUE(live.handle->wait_for(30s))
      << "stranded behind the expired job";
  EXPECT_EQ(live.handle->result().state, JobState::kDone);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.jobs.expired").value(), 1u);
  }
}

TEST_P(ServiceLifecycle, DeadlineExpiryWhileRunning) {
  const auto [s, pulses] = make_tiny();

  const auto deadline = std::chrono::steady_clock::now() + 200ms;
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  // Every checkpoint sleeps past the deadline, so the first one taken
  // after kRunning begins must observe the expiry.
  sc.inter_block_hook = [deadline] {
    std::this_thread::sleep_until(deadline + 10ms);
  };
  ImageFormationService service(in_mode(sc));

  auto req = tiny_request(s, pulses);
  req.deadline = deadline;
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());

  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.error, "deadline passed while running");
}

TEST_P(ServiceLifecycle, OversizedRegionFailsAndServiceKeepsServing) {
  // A 2^31 x 2^31 grid at 0.5 m, one ASR block and one 64-sample pulse
  // passes submit, but its region tile exceeds std::vector::max_size(), so
  // setup throws std::length_error before touching memory. The job fails
  // with that error, and the same service then forms a normal image.
  const Index edge = Index{1} << 31;
  ImageFormationRequest huge;
  huge.grid = geometry::ImageGrid(edge, edge, 0.5);
  huge.pulses = std::make_shared<const sim::PhaseHistory>(1, 64, 0.5, 1.0);
  huge.asr_block_w = huge.asr_block_h = edge;
  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(in_mode(sc));

  auto failed = service.submit(std::move(huge));
  ASSERT_TRUE(failed.admitted());
  ASSERT_TRUE(failed.handle->wait_for(30s));
  EXPECT_EQ(failed.handle->result().state, JobState::kFailed);
  EXPECT_FALSE(failed.handle->result().error.empty());

  const auto [s, pulses] = make_tiny();
  auto formed = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(formed.admitted());
  const JobResult& result = formed.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_EQ(result.image.width(), s.grid.width());
}

TEST(Service, PlanCacheHitOnRepeatedGeometry) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.plan_cache_capacity = 4;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  // The first request is an unkept miss; the second, a repeat inside the
  // miss record's window, a kept miss that builds and inserts the plan;
  // the third hits it.
  auto first = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(first.admitted());
  ASSERT_EQ(first.handle->wait().state, JobState::kDone);
  EXPECT_FALSE(first.handle->result().plan_cache_hit);
  EXPECT_TRUE(first.handle->result().plan_unkept);
  EXPECT_EQ(service.plan_cache().size(), 0u);

  auto second = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(second.admitted());
  ASSERT_EQ(second.handle->wait().state, JobState::kDone);
  EXPECT_FALSE(second.handle->result().plan_cache_hit);
  EXPECT_FALSE(second.handle->result().plan_unkept);

  auto third = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(third.admitted());
  ASSERT_EQ(third.handle->wait().state, JobState::kDone);
  EXPECT_TRUE(third.handle->result().plan_cache_hit);
  EXPECT_TRUE(first.handle->result().image == third.handle->result().image);

  EXPECT_EQ(service.plan_cache().size(), 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 1u);
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 2u);
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 1u);
    EXPECT_GT(reg.gauge("service.plan_cache.bytes").value(), 0);
  }

  // Same collection, different region: a distinct plan key, so a miss.
  auto sub = tiny_request(s, pulses);
  sub.region = Region{0, 0, 16, 16};
  auto fourth = service.submit(std::move(sub));
  ASSERT_TRUE(fourth.admitted());
  ASSERT_EQ(fourth.handle->wait().state, JobState::kDone);
  EXPECT_FALSE(fourth.handle->result().plan_cache_hit);
  EXPECT_EQ(fourth.handle->result().image.width(), 16);
}

TEST(Service, PlanCacheCapacityZeroDisablesRetention) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.plan_cache_capacity = 0;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  for (int i = 0; i < 2; ++i) {
    auto outcome = service.submit(tiny_request(s, pulses));
    ASSERT_TRUE(outcome.admitted());
    ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);
    EXPECT_FALSE(outcome.handle->result().plan_cache_hit);
    EXPECT_TRUE(outcome.handle->result().plan_unkept);
  }
  EXPECT_EQ(service.plan_cache().size(), 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 0u);
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 2u);
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 2u);
  }
}

TEST(PlanCache, SignatureCollisionIsAMiss) {
  // A plan filed under history b's key but built from history a's pulse
  // geometry: what a 64-bit signature collision between a and b files. A
  // lookup for b must not replay a's tables.
  const auto [s, pulses] = make_tiny();
  const sim::PhaseHistory& a = *pulses;
  sim::PhaseHistory b = a;
  b.meta(3).start_range_m += 0.25;
  const Region region{0, 0, s.grid.width(), s.grid.height()};
  obs::Registry reg;
  PlanCache cache(4, &reg);
  // One earlier lookup of b makes the one under test a kept miss.
  EXPECT_TRUE(lookup_plan(cache, s.grid, region, 16, 16, b).unkept());
  auto forged = std::const_pointer_cast<FormationPlan>(
      build_formation_plan(s.grid, region, 16, 16, a));
  forged->key.pulse_signature = pulse_geometry_signature(b);
  cache.insert(forged);

  const PlanLookup lookup = lookup_plan(cache, s.grid, region, 16, 16, b);
  EXPECT_FALSE(lookup.hit());
  EXPECT_FALSE(lookup.unkept());
  EXPECT_NE(lookup.plan, forged);
  EXPECT_TRUE(same_pulse_geometry(lookup.plan->geometry, b));
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.collisions").value(), 1u);
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 0u);
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 2u);
  }
}

/// The image a prebuilt plan replays to: build_formation_plan +
/// execute_plan, the reference every cache-miss job must match bytewise.
Grid2D<CFloat> prebuilt_replay(const SmallScenario& s,
                               const sim::PhaseHistory& pulses,
                               const Region& region, Index block) {
  const auto plan = build_formation_plan(s.grid, region, block, block, pulses);
  bp::SoaTile tile(region.width, region.height);
  EXPECT_TRUE(execute_plan(*plan, pulses, tile, nullptr));
  Grid2D<CFloat> image(region.width, region.height);
  tile.accumulate_into(image, Region{0, 0, region.width, region.height});
  return image;
}

TEST(Service, OneOffScenesMapNoArena) {
  // Three scenes in turn through a 2-plan service: no scene recurs within
  // two unkept misses, so no job builds a plan or maps an arena, and every
  // image is execute_plan's of the built plan.
  const auto [s, pulses] = make_tiny();
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 2;
  sc.plan_cache_capacity = 2;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  std::vector<std::shared_ptr<const sim::PhaseHistory>> scenes;
  std::vector<Grid2D<CFloat>> expected;
  for (int i = 0; i < 3; ++i) {
    scenes.push_back(shifted(*pulses, 0.25 * (i + 1)));
    expected.push_back(prebuilt_replay(s, *scenes.back(), all, 16));
  }
  for (int job = 0; job < 9; ++job) {
    const auto scene = static_cast<std::size_t>(job % 3);
    auto outcome = service.submit(tiny_request(s, scenes[scene]));
    ASSERT_TRUE(outcome.admitted());
    const JobResult& result = outcome.handle->wait();
    ASSERT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_FALSE(result.plan_cache_hit);
    EXPECT_TRUE(result.plan_unkept);
    EXPECT_TRUE(result.image == expected[scene]) << "job " << job;
  }
  EXPECT_EQ(service.plan_cache().size(), 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 9u);
    EXPECT_EQ(reg.counter("service.plan_cache.inserts").value(), 0u);
  }
}

/// How the cache-miss job under test aborts.
enum class MissAbort { kCancel, kDeadline, kThrow };

/// A kept miss builds its plan inside the replay tasks and inserts it only
/// when every task ran; an unkept one builds no plan. Abort either after a
/// block's tables are built: the cache must keep its size and bytes, and
/// the next identical request must miss again (a kept miss: the aborted
/// request recorded the key either way) and still deliver the
/// prebuilt-plan image.
void expect_aborted_miss_inserts_nothing(MissAbort how, bool kept = true) {
  const auto [s, pulses] = make_tiny();
  const Region all{0, 0, s.grid.width(), s.grid.height()};

  std::atomic<bool> armed{false};
  std::atomic<int> armed_calls{0};
  std::mutex m;
  std::condition_variable cv;
  bool at_checkpoint = false;
  bool release = false;
  std::chrono::steady_clock::time_point deadline{};  // set before arming

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;  // one task per block on one worker: a fixed hook order
  sc.plan_cache_capacity = 4;
  sc.metrics = &reg;
  sc.inter_block_hook = [&] {
    if (!armed.load()) return;
    // Each block is a task: calls 0 and 2 are the executor's polls before
    // the first two tasks start, calls 1 and 3 the tasks' polls before
    // their blocks, so call 3 lands inside a task after the first block's
    // tables were built and swept.
    if (armed_calls.fetch_add(1) != 3) return;
    switch (how) {
      case MissAbort::kCancel: {
        std::unique_lock lock(m);
        at_checkpoint = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        break;
      }
      case MissAbort::kDeadline:
        std::this_thread::sleep_until(deadline + 10ms);
        break;
      case MissAbort::kThrow:
        throw std::runtime_error("injected task fault");
    }
  };
  ImageFormationService service(sc);

  // Another key already cached (its second request is a kept miss): the
  // aborted miss must neither add an entry nor evict one.
  for (int i = 0; i < 2; ++i) {
    auto corner = tiny_request(s, pulses);
    corner.region = Region{0, 0, 16, 16};
    auto warm = service.submit(std::move(corner));
    ASSERT_TRUE(warm.admitted());
    ASSERT_EQ(warm.handle->wait().state, JobState::kDone);
  }
  ASSERT_EQ(service.plan_cache().size(), 1u);
  const std::size_t bytes_before = service.plan_cache().bytes();
  if (kept) {
    // One earlier request of the geometry makes the one under test a kept
    // miss.
    auto earlier = service.submit(tiny_request(s, pulses));
    ASSERT_TRUE(earlier.admitted());
    ASSERT_EQ(earlier.handle->wait().state, JobState::kDone);
    ASSERT_TRUE(earlier.handle->result().plan_unkept);
  }

  auto req = tiny_request(s, pulses);
  deadline = std::chrono::steady_clock::now() + 500ms;
  if (how == MissAbort::kDeadline) req.deadline = deadline;
  armed = true;
  auto victim = service.submit(std::move(req));
  ASSERT_TRUE(victim.admitted());
  if (how == MissAbort::kCancel) {
    {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return at_checkpoint; });
    }
    EXPECT_TRUE(victim.handle->cancel());
    {
      std::lock_guard lock(m);
      release = true;
    }
    cv.notify_all();
  }
  const JobResult& aborted = victim.handle->wait();
  switch (how) {
    case MissAbort::kCancel:
      EXPECT_EQ(aborted.state, JobState::kCancelled);
      EXPECT_EQ(aborted.error, "cancelled while running");
      break;
    case MissAbort::kDeadline:
      EXPECT_EQ(aborted.state, JobState::kExpired);
      EXPECT_EQ(aborted.error, "deadline passed while running");
      break;
    case MissAbort::kThrow:
      EXPECT_EQ(aborted.state, JobState::kFailed);
      EXPECT_EQ(aborted.error, "injected task fault");
      break;
  }
  EXPECT_GE(armed_calls.load(), 3);
  EXPECT_FALSE(aborted.plan_cache_hit);
  EXPECT_EQ(aborted.plan_unkept, !kept);
  EXPECT_EQ(service.plan_cache().size(), 1u);
  EXPECT_EQ(service.plan_cache().bytes(), bytes_before);

  armed = false;
  auto again = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(again.admitted());
  const JobResult& result = again.handle->wait();
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_FALSE(result.plan_cache_hit);
  EXPECT_FALSE(result.plan_unkept);
  const Grid2D<CFloat> expected = prebuilt_replay(s, *pulses, all, 16);
  EXPECT_TRUE(result.image == expected);
  EXPECT_EQ(service.plan_cache().size(), 2u);

  // That miss inserted a complete plan: replaying it gives the same bytes.
  auto hit = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(hit.admitted());
  const JobResult& replayed = hit.handle->wait();
  ASSERT_EQ(replayed.state, JobState::kDone) << replayed.error;
  EXPECT_TRUE(replayed.plan_cache_hit);
  EXPECT_TRUE(replayed.image == expected);
  if (obs::kEnabled) {
    // The corner's two, the earlier request's (kept only), the aborted
    // one's and the repeat's.
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(),
              kept ? 5u : 4u);
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 2u);
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 1u);
  }
}

TEST(Service, CancelledMissInsertsNoPlan) {
  expect_aborted_miss_inserts_nothing(MissAbort::kCancel);
}

TEST(Service, ExpiredMissInsertsNoPlan) {
  expect_aborted_miss_inserts_nothing(MissAbort::kDeadline);
}

TEST(Service, ThrowingMissTaskInsertsNoPlan) {
  expect_aborted_miss_inserts_nothing(MissAbort::kThrow);
}

TEST(Service, CancelledUnkeptMissLeavesCacheUntouched) {
  expect_aborted_miss_inserts_nothing(MissAbort::kCancel, /*kept=*/false);
}

TEST(Service, ExpiredUnkeptMissLeavesCacheUntouched) {
  expect_aborted_miss_inserts_nothing(MissAbort::kDeadline, /*kept=*/false);
}

TEST(Service, ThrowingUnkeptMissLeavesCacheUntouched) {
  expect_aborted_miss_inserts_nothing(MissAbort::kThrow, /*kept=*/false);
}

TEST(Service, DrainWithJobsInFlightRunsBacklogToCompletion) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < 8; ++i) {
    auto outcome = service.submit(tiny_request(
        s, pulses, static_cast<Priority>(i % kNumPriorities)));
    ASSERT_TRUE(outcome.admitted());
    handles.push_back(std::move(outcome.handle));
  }
  service.drain();  // must run every queued job, then stop — no hang

  for (const auto& handle : handles) {
    EXPECT_EQ(handle->result().state, JobState::kDone)
        << handle->result().error;
  }
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.jobs.done").value(), 8u);
  }
}

TEST(Service, IdleWorkersParkWithoutPolling) {
  if (!obs::kEnabled) GTEST_SKIP() << "reads the exec.steal.fail counter";
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 3;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  auto outcome = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(outcome.admitted());
  ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);

  // Idle workers park on the executor's epoch, as a pool without a source
  // does: once settled, they make no steal attempts.
  const std::uint64_t before =
      testing::settled_value(reg.counter("exec.steal.fail"));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(reg.counter("exec.steal.fail").value(), before);
}

TEST(Service, SubmitAfterDrainRejectsShuttingDown) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  service.drain();

  auto outcome = service.submit(tiny_request(s, pulses));
  EXPECT_FALSE(outcome.admitted());
  EXPECT_EQ(outcome.reject, RejectReason::kShuttingDown);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.shutting_down").value(), 1u);
  }
}

// --- traces --------------------------------------------------------------

TEST(Trace, JsonRoundTrip) {
  Trace trace = make_repeated_scene_trace(2, 2, 48, 16, 16);
  ASSERT_EQ(trace.requests.size(), 4u);
  // Tenants that need escaping: a quote, a backslash, control characters.
  trace.requests[1].tenant = "a\"b";
  trace.requests[2].tenant = "a\\b";
  trace.requests[3].tenant = "tab\there\nline\x01";
  // Timings that a 6-significant-digit writer rounds.
  trace.requests[0].delay_ms = 0.1234567;
  trace.requests[0].deadline_ms = 1234.5678;
  const Trace parsed = parse_trace_json(to_json(trace));
  ASSERT_EQ(parsed.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(parsed.requests[i].image, trace.requests[i].image);
    EXPECT_EQ(parsed.requests[i].pulses, trace.requests[i].pulses);
    EXPECT_EQ(parsed.requests[i].block, trace.requests[i].block);
    EXPECT_EQ(parsed.requests[i].priority, trace.requests[i].priority);
    EXPECT_EQ(parsed.requests[i].scene, trace.requests[i].scene);
    EXPECT_EQ(parsed.requests[i].tenant, trace.requests[i].tenant);
    EXPECT_EQ(parsed.requests[i].delay_ms, trace.requests[i].delay_ms);
    EXPECT_EQ(parsed.requests[i].deadline_ms, trace.requests[i].deadline_ms);
  }
}

TEST(Trace, NearPastDeadlineRoundTripsAndExpiresOnReplay) {
  // A negative deadline_ms is a deadline already past at submission. It
  // must survive the JSON round trip (not get clamped to "no deadline")
  // and replay as an immediate expiry, not a completed job.
  Trace trace;
  TraceEntry entry;
  entry.image = 32;
  entry.pulses = 8;
  entry.block = 16;
  entry.deadline_ms = -5.0;
  trace.requests.push_back(entry);

  const Trace parsed = parse_trace_json(to_json(trace));
  ASSERT_EQ(parsed.requests.size(), 1u);
  EXPECT_EQ(parsed.requests[0].deadline_ms, -5.0);

  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(sc);
  const ReplayStats stats = replay_trace(parsed, service);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.done, 0u);
}

TEST(Trace, ParseRejectsBadInput) {
  EXPECT_THROW(parse_trace_json("{}"), PreconditionError);
  EXPECT_THROW(parse_trace_json("{\"schema\": \"sarbp.trace.v9\"}"),
               PreconditionError);
  EXPECT_THROW(
      parse_trace_json("{\"schema\": \"sarbp.trace.v1\", \"bogus\": 1}"),
      PreconditionError);
  EXPECT_THROW(parse_trace_json("{\"schema\": \"sarbp.trace.v1\", "
                                "\"requests\": [{\"frobnicate\": 3}]}"),
               PreconditionError);
  EXPECT_THROW(parse_trace_json("not json at all"), PreconditionError);

  // Each case is a one-request trace whose request is `fields`.
  const auto trace_with = [](const std::string& fields) {
    return "{\"schema\": \"sarbp.trace.v1\", \"requests\": [{" + fields +
           "}]}";
  };
  ASSERT_EQ(parse_trace_json(trace_with("\"ix\": 96")).requests.size(), 1u);
  EXPECT_THROW(parse_trace_json(trace_with("\"ix\": 96") + " garbage"),
               PreconditionError);
  EXPECT_THROW(parse_trace_json(trace_with("\"ix\": 96, \"ix\": 64")),
               PreconditionError);
  // Integer fields take integers within their type's range only.
  for (const char* bad :
       {"\"ix\": 96.7", "\"ix\": +96", "\"pulses\": 1e2", "\"scene\": -1",
        "\"scene\": 18446744073709551616", "\"repeat\": 1e12",
        "\"stream\": 1.5", "\"stream\": 1, \"chunk\": 2.5",
        "\"stream\": 1, \"window\": 3e0"}) {
    EXPECT_THROW(parse_trace_json(trace_with(bad)), PreconditionError) << bad;
  }
}

TEST(Trace, ReplayRepeatedScenesHitsPlanCache) {
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;  // sequential: every repeat lands after its scene's miss
  sc.plan_cache_capacity = 4;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  // Each scene's first request is an unkept miss, its first repeat a kept
  // miss that builds the plan, and its second repeat a hit.
  const Trace trace = make_repeated_scene_trace(2, 3, 48, 12, 16);
  const ReplayStats stats = replay_trace(trace, service);
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.done, 6u);
  EXPECT_EQ(stats.plan_misses, 4u);         // two per distinct scene
  EXPECT_EQ(stats.plan_unkept_misses, 2u);  // of which one unkept
  EXPECT_EQ(stats.plan_hits, 2u);           // one per second repeat
  EXPECT_GT(stats.throughput_jobs_per_s, 0.0);
  EXPECT_GE(stats.latency_p99_s, stats.latency_p50_s);
}

// --- custom jobs (the seam streaming updates ride through) ---------------

TEST(CustomJob, RunsFullLifecycleWithoutPulses) {
  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(sc);

  std::atomic<bool> ran{false};
  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [&ran](const CustomJobContext& ctx) -> exec::GroupPtr {
    std::vector<exec::TaskGroup::Task> tasks;
    tasks.emplace_back([&ran](exec::TaskGroup&) { ran = true; });
    auto finish = ctx.finish;
    return std::make_shared<exec::TaskGroup>(
        std::move(tasks), ctx.checkpoint,
        [finish](exec::TaskGroup& group) {
          finish(group.aborted() ? JobState::kFailed : JobState::kDone, "");
        },
        "custom_test");
  };

  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(result.image.width(), 0);  // custom jobs publish elsewhere
}

TEST(CustomJob, FinishReportsStateAfterLosingCancelRace) {
  // A custom job cancelled while QUEUED never runs its factory; the
  // abandonment callback is the only notification, and it must carry the
  // resolved state.
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;
  ImageFormationService service(sc);

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<JobState> abandoned;
  std::atomic<bool> factory_ran{false};
  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [&factory_ran](const CustomJobContext& ctx) -> exec::GroupPtr {
    factory_ran = true;
    ctx.finish(JobState::kDone, "");
    return nullptr;
  };
  req.custom_abandoned = [&](JobState state) {
    std::lock_guard<std::mutex> lock(mutex);
    abandoned = state;
    cv.notify_all();
  };

  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  EXPECT_TRUE(outcome.handle->cancel());
  service.resume();
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return abandoned.has_value(); }));
    EXPECT_EQ(*abandoned, JobState::kCancelled);
  }
  EXPECT_FALSE(factory_ran.load());
  EXPECT_EQ(outcome.handle->result().state, JobState::kCancelled);
}

TEST(CustomJob, RejectedInShardedMode) {
  ServiceConfig sc;
  sc.shards = 2;
  sc.shard_workers = 1;
  ImageFormationService service(sc);

  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [](const CustomJobContext&) -> exec::GroupPtr {
    return nullptr;
  };
  const auto outcome = service.submit(std::move(req));
  EXPECT_FALSE(outcome.admitted());
  EXPECT_EQ(outcome.reject, RejectReason::kInvalidRequest);
}

TEST(CustomJob, ThrowingFactoryFailsTheJob) {
  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(sc);

  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [](const CustomJobContext&) -> exec::GroupPtr {
    throw std::runtime_error("factory exploded");
  };
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.error, "factory exploded");
}

}  // namespace
}  // namespace sarbp::service
