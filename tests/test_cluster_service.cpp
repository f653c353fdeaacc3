// Sharded formation-service tests: routing parity against the single-node
// path (byte-identical for single-shard, grid-split and degenerate-region
// jobs, a grid-split miss also to execute_plan), band placement from each
// job's home shard, rank-fault injection resolving jobs as kFailed instead
// of hanging, and a multi-tenant sharded replay smoke.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

/// Forms `req` through a service built from `sc` and returns its image.
Grid2D<CFloat> form_once(ServiceConfig sc, ImageFormationRequest req) {
  ImageFormationService service(std::move(sc));
  auto outcome = service.submit(std::move(req));
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
  const Grid2D<CFloat> reference = form_once(local, make_request(f));

  ServiceConfig sharded;
  sharded.shards = 2;  // 32*32 = 1024 <= shard_small_pixels: single-shard
  const Grid2D<CFloat> image = form_once(sharded, make_request(f));

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
  const Grid2D<CFloat> reference = form_once(local, make_request(f));
  ServiceConfig simd_local = local;
  simd_local.backends.resize(1);
  simd_local.backends[0].kind = exec::BackendSpec::Kind::kHostSimd;
  const Grid2D<CFloat> simd_reference = form_once(simd_local, make_request(f));

  obs::Registry reg;
  ServiceConfig sharded;
  sharded.shards = 2;
  sharded.shard_small_pixels = 16;  // force the splitter for this job
  sharded.metrics = &reg;
  const Grid2D<CFloat> image = form_once(sharded, make_request(f));

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

TEST(ClusterService, ShardedAutoStrategyOnDegenerateRegions) {
  // 1 x 48 and 48 x 1 regions band-split along their one long side; one
  // 48-px block leaves one band each way, so that job goes whole to one
  // shard; a 51 x 37 region of a 64^2 grid at block 8 has 5 block rows,
  // the last one 5 px tall, so 7 shards get 5 bands and two get none.
  // Every route delivers the local service's bytes.
  struct Shape {
    Index image;
    Region region;
    Index block;
    int shards;
    std::uint64_t bands;
  };
  for (const Shape& shape : {Shape{48, {0, 0, 1, 48}, 16, 2, 2},
                             Shape{48, {0, 0, 48, 1}, 16, 2, 2},
                             Shape{48, {0, 0, 48, 48}, 48, 2, 1},
                             Shape{64, {5, 11, 51, 37}, 8, 7, 5}}) {
    const Fixture f = make_fixture(shape.image, 12);
    ImageFormationRequest base = make_request(f, shape.block);
    base.region = shape.region;

    ServiceConfig local;
    local.workers = 1;
    ImageFormationService reference_service(local);
    auto ref_outcome = reference_service.submit(ImageFormationRequest(base));
    ASSERT_TRUE(ref_outcome.admitted());
    const JobResult& reference = ref_outcome.handle->wait();
    ASSERT_EQ(reference.state, JobState::kDone) << reference.error;

    obs::Registry reg;
    ServiceConfig sharded;
    sharded.shards = shape.shards;
    sharded.shard_small_pixels = 16;
    sharded.metrics = &reg;
    ImageFormationService service(sharded);
    auto outcome = service.submit(std::move(base));
    ASSERT_TRUE(outcome.admitted());
    const JobResult& result = outcome.handle->wait();
    ASSERT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_TRUE(result.image == reference.image)
        << shape.region.width << "x" << shape.region.height << ", block "
        << shape.block << ", " << shape.shards << " shards";
    if (obs::kEnabled) {
      EXPECT_EQ(reg.counter("shard.parts.dispatched").value(), shape.bands)
          << shape.region.width << "x" << shape.region.height;
    }
  }
}

TEST(ClusterService, BlockEdgeLargerThanTheRegionIsTheRegionsEdge) {
  // A request's ASR block edge clamps to its region's before any
  // arithmetic: Index's largest edge over region {5, 7, 40, 30} forms the
  // bytes of a 40 x 30 block, locally and through the shards.
  const Fixture f = make_fixture(48, 12);
  ImageFormationRequest fitted = make_request(f);
  fitted.region = Region{5, 7, 40, 30};
  fitted.asr_block_w = 40;
  fitted.asr_block_h = 30;
  ImageFormationRequest huge = fitted;
  huge.asr_block_w = huge.asr_block_h = std::numeric_limits<Index>::max();

  ServiceConfig local;
  local.workers = 1;
  ServiceConfig sharded;
  sharded.shards = 2;
  sharded.shard_small_pixels = 16;
  const Grid2D<CFloat> reference = form_once(local, fitted);
  EXPECT_TRUE(form_once(local, huge) == reference);
  EXPECT_TRUE(form_once(sharded, huge) == reference);
}

TEST(ClusterService, BandsStartAtTheJobsHomeShard) {
  // Band i of a job goes to shard (home + i) mod shards. The empty
  // tenant's home is its sequence number mod 4, so the first 2-band job
  // lands on shards 1 and 2 and the second on shards 2 and 3.
  const Fixture f = make_fixture(48, 12);
  obs::Registry reg;
  ServiceConfig sc;
  sc.shards = 4;
  sc.shard_small_pixels = 16;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  const auto groups = [&reg] {
    std::vector<std::uint64_t> per_shard;
    for (int k = 0; k < 4; ++k) {
      per_shard.push_back(
          reg.counter("shard." + std::to_string(k) + ".exec.groups.submitted")
              .value());
    }
    return per_shard;
  };
  for (const auto& expected : {std::vector<std::uint64_t>{0, 1, 1, 0},
                               std::vector<std::uint64_t>{0, 1, 2, 1}}) {
    ImageFormationRequest req = make_request(f);
    req.region = Region{0, 0, 48, 32};  // two 16-px block bands
    auto outcome = service.submit(std::move(req));
    ASSERT_TRUE(outcome.admitted());
    ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);
    if (obs::kEnabled) {
      EXPECT_EQ(groups(), expected);
    }
  }
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("shard.jobs.grid_split").value(), 2u);
    EXPECT_EQ(reg.counter("shard.parts.dispatched").value(), 4u);
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

TEST(ClusterService, JobsAfterARankDiesFailPromptly) {
  // A dead rank fails every later job too, at once and with the first
  // cause: no part of theirs can reach a rank, and the gather must not wait
  // on a reply that cannot come. Each grid-split job has three 16-px block
  // bands; job 1's home is shard 1, so shard 0 holds one of its bands at 2
  // and at 3 shards.
  const Fixture f = make_fixture(48, 12);
  const auto expect_aborted = [](const std::shared_ptr<JobHandle>& handle) {
    ASSERT_TRUE(handle->wait_for(10s)) << "job never resolved";
    const JobResult& result = handle->result();
    EXPECT_EQ(result.state, JobState::kFailed);
    EXPECT_NE(result.error.find("shard cluster aborted"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("injected shard fault"), std::string::npos)
        << result.error;
  };
  for (const int shards : {2, 3}) {
    SCOPED_TRACE(shards);
    ServiceConfig sc;
    sc.shards = shards;
    sc.shard_small_pixels = 16;
    sc.shard_fault_hook = [](int shard, std::uint64_t seq) {
      if (shard == 0 && seq == 1) {
        throw std::runtime_error("injected shard fault");
      }
    };
    ImageFormationService service(sc);

    auto first = service.submit(make_request(f));
    ASSERT_TRUE(first.admitted());
    expect_aborted(first.handle);
    std::vector<std::shared_ptr<JobHandle>> later;
    for (int j = 0; j < 3; ++j) {
      auto outcome = service.submit(make_request(f));
      ASSERT_TRUE(outcome.admitted());
      later.push_back(std::move(outcome.handle));
    }
    for (const auto& handle : later) expect_aborted(handle);
    service.drain();
  }
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
