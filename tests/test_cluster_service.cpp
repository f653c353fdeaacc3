// Sharded formation-service tests: routing parity against the single-node
// path (byte-identical for single-shard and grid-split jobs, a grid-split
// miss also to execute_plan, SNR-bounded for the pulse-scatter reduction),
// the pulse-scatter front end's plan lookup (unkept, kept, hit: one image),
// rank-fault injection resolving jobs as kFailed instead of hanging, and a
// multi-tenant sharded replay smoke.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/snr.h"
#include "exec/tile_backend.h"
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

struct Fixture {
  SmallScenario scenario;
  std::shared_ptr<const sim::PhaseHistory> pulses;
};

Fixture make_fixture(Index image, Index pulses, std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.image = image;
  cfg.pulses = pulses;
  cfg.seed = seed;
  SmallScenario s = make_scenario(cfg);
  auto history = std::make_shared<const sim::PhaseHistory>(s.history);
  return {std::move(s), std::move(history)};
}

ImageFormationRequest make_request(const Fixture& f, Index block = 16) {
  ImageFormationRequest req;
  req.grid = f.scenario.grid;
  req.pulses = f.pulses;
  req.asr_block_w = req.asr_block_h = block;
  return req;
}

/// Forms one image through a service built from `sc` and returns it.
Grid2D<CFloat> form_once(ServiceConfig sc, const Fixture& f,
                         Index block = 16) {
  ImageFormationService service(std::move(sc));
  auto outcome = service.submit(make_request(f, block));
  EXPECT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.error;
  return result.image;
}

TEST(ClusterService, SingleShardJobsAreByteIdenticalToLocal) {
  // A job under the small-job threshold routes whole to one shard, whose
  // worker builds the same full-region plan the local path would; the
  // gathered tile must match the single-node image byte for byte.
  const Fixture f = make_fixture(32, 12);

  ServiceConfig local;
  local.workers = 1;
  const Grid2D<CFloat> reference = form_once(local, f);

  ServiceConfig sharded;
  sharded.shards = 2;  // 32*32 = 1024 <= shard_small_pixels: single-shard
  const Grid2D<CFloat> image = form_once(sharded, f);

  EXPECT_TRUE(image == reference);
}

TEST(ClusterService, GridSplitIsBitIdenticalToLocal) {
  // Band cuts land on ASR block boundaries anchored at the region origin,
  // so each shard computes exactly the blocks the full plan would, and the
  // gather copies disjoint sub-rectangles: no floating-point reduction at
  // all, hence exact equality. Every ASR kernel gives the same bytes, so
  // this holds against the backend-less local service and against one on a
  // SIMD backend (the local path perfbench's `survey` times) alike.
  const Fixture f = make_fixture(48, 12);

  ServiceConfig local;
  local.workers = 1;
  const Grid2D<CFloat> reference = form_once(local, f);
  ServiceConfig simd_local = local;
  simd_local.backends.resize(1);
  simd_local.backends[0].kind = exec::BackendSpec::Kind::kHostSimd;
  const Grid2D<CFloat> simd_reference = form_once(simd_local, f);

  obs::Registry reg;
  ServiceConfig sharded;
  sharded.shards = 2;
  sharded.shard_small_pixels = 16;  // force the splitter for this job
  sharded.metrics = &reg;
  const Grid2D<CFloat> image = form_once(sharded, f);

  EXPECT_TRUE(image == reference);
  EXPECT_TRUE(image == simd_reference);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("shard.jobs.grid_split").value(), 1u);
  }
}

TEST(ClusterService, GridSplitMissMatchesExecutePlan) {
  // Each rank misses on its band twice: first an unkept miss, whose tasks
  // build the band's tables on the fly, then a kept miss, whose tasks
  // build the band plan's tables. Both gathered images equal execute_plan
  // of the prebuilt full-region plan byte for byte, whatever the rank's
  // worker count or steal setting. 41 px puts 9 px edge blocks in the
  // last band.
  for (const Index image : {48, 41}) {
    const Fixture f = make_fixture(image, 12);
    const Region all{0, 0, image, image};
    const auto plan =
        build_formation_plan(f.scenario.grid, all, 16, 16, *f.pulses);
    bp::SoaTile tile(image, image);
    ASSERT_TRUE(execute_plan(*plan, *f.pulses, tile, nullptr));
    Grid2D<CFloat> reference(image, image);
    tile.accumulate_into(reference, all);

    for (const int workers : {1, 3}) {
      for (const bool steal : {false, true}) {
        obs::Registry reg;
        ServiceConfig sharded;
        sharded.shards = 2;
        sharded.shard_workers = workers;
        sharded.steal = steal;
        sharded.shard_small_pixels = 16;
        sharded.metrics = &reg;
        ImageFormationService service(std::move(sharded));
        for (const bool unkept : {true, false}) {
          auto outcome = service.submit(make_request(f, 16));
          ASSERT_TRUE(outcome.admitted());
          const JobResult& result = outcome.handle->wait();
          ASSERT_EQ(result.state, JobState::kDone) << result.error;
          EXPECT_EQ(result.plan_unkept, unkept);
          EXPECT_TRUE(result.image == reference)
              << image << " px, " << workers << " workers, steal " << steal
              << (unkept ? ", unkept" : ", kept");
        }
        if (obs::kEnabled) {
          EXPECT_EQ(reg.counter("shard.jobs.grid_split").value(), 2u);
          EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 2u);
        }
      }
    }
  }
}

TEST(ClusterService, PulseScatterMatchesLocalWithinReductionTolerance) {
  // Pulse scatter sums partial tiles in shard-index order — a different
  // float reduction order than the single-node pulse loop, so the images
  // agree to reduction precision (documented in DESIGN.md), not bytes.
  // One 48-px block leaves one band each way, so the 2,304-px job is
  // pulse-scattered.
  const Fixture f = make_fixture(48, 12);

  ServiceConfig local;
  local.workers = 1;
  const Grid2D<CFloat> reference = form_once(local, f, 48);

  obs::Registry reg;
  ServiceConfig sharded;
  sharded.shards = 2;
  sharded.shard_small_pixels = 16;
  sharded.metrics = &reg;
  const Grid2D<CFloat> image = form_once(sharded, f, 48);

  EXPECT_GT(snr_db(image, reference), 70.0);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("shard.jobs.pulse_scatter").value(), 1u);
  }
}

TEST(ClusterService, PulseScatterLooksUpTheSharedPlan) {
  // The pulse-scatter front end looks the full-region plan up like every
  // miss path: the first job is an unkept miss whose ranks sweep their
  // pulse ranges with tables built on the fly, leaving the cache empty; its
  // repeat is a kept miss whose plan the front end builds and inserts; the
  // third hits. Both table sources give the same bytes, and so do the
  // three images.
  const Fixture f = make_fixture(48, 12);
  obs::Registry reg;
  ServiceConfig sharded;
  sharded.shards = 2;
  sharded.shard_small_pixels = 16;
  sharded.metrics = &reg;
  ImageFormationService service(std::move(sharded));
  std::vector<Grid2D<CFloat>> images;
  for (int job = 0; job < 3; ++job) {
    SCOPED_TRACE("job " + std::to_string(job));
    auto outcome = service.submit(make_request(f, 48));
    ASSERT_TRUE(outcome.admitted());
    const JobResult& result = outcome.handle->wait();
    ASSERT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_EQ(result.plan_unkept, job == 0);
    EXPECT_EQ(result.plan_cache_hit, job == 2);
    EXPECT_EQ(service.plan_cache().size(), job == 0 ? 0u : 1u);
    images.push_back(result.image);
  }
  EXPECT_TRUE(images[1] == images[0]);
  EXPECT_TRUE(images[2] == images[0]);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("shard.jobs.pulse_scatter").value(), 3u);
    EXPECT_EQ(reg.counter("service.plan_cache.unkept").value(), 1u);
    EXPECT_EQ(reg.counter("service.plan_cache.inserts").value(), 1u);
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 1u);
  }
}

TEST(ClusterService, ShardedAutoStrategyOnDegenerateRegions) {
  // 1xN and Nx1 grids cannot be band-split into two block-aligned pieces,
  // so the router must fall back (pulse scatter or single) and still
  // produce a faithful image rather than rejecting or crashing.
  for (const auto& shape :
       {std::pair<Index, Index>{1, 48}, std::pair<Index, Index>{48, 1}}) {
    const Fixture f = make_fixture(48, 12);
    ImageFormationRequest base = make_request(f);
    base.region = Region{0, 0, shape.first, shape.second};

    ServiceConfig local;
    local.workers = 1;
    ImageFormationService reference_service(local);
    auto ref_outcome = reference_service.submit(ImageFormationRequest(base));
    ASSERT_TRUE(ref_outcome.admitted());
    const JobResult& reference = ref_outcome.handle->wait();
    ASSERT_EQ(reference.state, JobState::kDone) << reference.error;

    ServiceConfig sharded;
    sharded.shards = 2;
    sharded.shard_small_pixels = 4;
    ImageFormationService service(sharded);
    auto outcome = service.submit(std::move(base));
    ASSERT_TRUE(outcome.admitted());
    const JobResult& result = outcome.handle->wait();
    ASSERT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_GT(snr_db(result.image, reference.image), 70.0)
        << shape.first << "x" << shape.second;
  }
}

TEST(ClusterService, ThrowingShardFailsJobInsteadOfHanging) {
  // The regression the abort protocol exists for: a rank that dies while
  // holding a dispatched part must fail the job promptly — before the fix,
  // the gather thread waited forever on a reply that could never come.
  const Fixture f = make_fixture(32, 12);

  ServiceConfig sc;
  sc.shards = 2;
  sc.shard_fault_hook = [](int /*shard*/, std::uint64_t seq) {
    if (seq == 1) throw std::runtime_error("injected shard fault");
  };
  ImageFormationService service(sc);

  auto outcome = service.submit(make_request(f));
  ASSERT_TRUE(outcome.admitted());
  ASSERT_TRUE(outcome.handle->wait_for(10s))
      << "job never resolved after the shard died";
  const JobResult& result = outcome.handle->result();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_NE(result.error.find("shard cluster aborted"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("injected shard fault"), std::string::npos)
      << result.error;
  service.drain();  // must return despite the dead cluster
}

TEST(ClusterService, ShardedMultiTenantReplaySmoke) {
  // End-to-end: the repeated-scene multi-tenant trace through a sharded
  // service, with the threshold forcing every job through the splitter.
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.shards = 2;
  sc.shard_small_pixels = 16;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  const Trace trace = make_repeated_scene_trace(2, 2, 48, 12, 16);
  const ReplayStats stats = replay_trace(trace, service);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.done, 4u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("tenant.tenant-1.submitted").value(), 2u);
    EXPECT_EQ(reg.counter("tenant.tenant-2.submitted").value(), 2u);
    EXPECT_EQ(reg.counter("shard.parts.dispatched").value(), 8u);
  }
}

}  // namespace
}  // namespace sarbp::service
