// Tile compute backends and the §5.3 block router: scalar- and
// SIMD-backend sweeps are byte-identical to the plan executor
// (null-backends path), the BackendSet's split moves from capability
// priors to observed rates, partition() boundaries are sound, the service
// routed end-to-end through ServiceConfig::backends stays byte-identical to
// the legacy path, and a plan-cache miss (tables built inside its tasks)
// matches a prebuilt-plan replay byte for byte.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "test_helpers.h"

namespace sarbp::service {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

struct PlanFixture {
  SmallScenario scenario;
  std::shared_ptr<const sim::PhaseHistory> pulses;
  Region region;
  std::shared_ptr<const service::FormationPlan> plan;
};

PlanFixture make_plan_fixture(Index image = 48, Index pulses = 16,
                              Index block = 16) {
  ScenarioConfig cfg;
  cfg.image = image;
  cfg.pulses = pulses;
  SmallScenario s = make_scenario(cfg);
  const Region region{0, 0, image, image};
  auto plan = service::build_formation_plan(s.grid, region, block, block,
                                            s.history);
  auto history = std::make_shared<const sim::PhaseHistory>(s.history);
  return {std::move(s), std::move(history), region, std::move(plan)};
}

/// Sweeps every block of the fixture's plan through `backend`'s kernel.
void sweep_plan(const PlanFixture& f, const exec::TileBackend& backend,
                bp::SoaTile& tile) {
  for (std::size_t b = 0; b < f.plan->blocks.size(); ++b) {
    bp::sweep_asr_block(f.plan->blocks[b], f.region.x0, f.region.y0,
                        f.plan->block_tables(b),
                        bp::PulseRange{f.pulses.get(), 0, f.plan->num_pulses()},
                        backend.kernel(), tile);
  }
}

bool tiles_equal(const bp::SoaTile& a, const bp::SoaTile& b) {
  const auto bytes = sizeof(float) * static_cast<std::size_t>(a.width());
  for (Index y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row_re(y), b.row_re(y), bytes) != 0) return false;
    if (std::memcmp(a.row_im(y), b.row_im(y), bytes) != 0) return false;
  }
  return true;
}

Grid2D<CFloat> grid_of(const bp::SoaTile& tile) {
  Grid2D<CFloat> out(tile.width(), tile.height());
  for (Index y = 0; y < tile.height(); ++y) {
    for (Index x = 0; x < tile.width(); ++x) {
      out.at(x, y) = CFloat{tile.row_re(y)[x], tile.row_im(y)[x]};
    }
  }
  return out;
}

// --- backend sweeps vs the plan executor ---------------------------------

TEST(TileBackend, ScalarSweepMatchesExecutePlanExactly) {
  const PlanFixture f = make_plan_fixture();
  bp::SoaTile expected(f.region.width, f.region.height);
  ASSERT_TRUE(service::execute_plan(*f.plan, *f.pulses, expected, nullptr));

  exec::BackendSpec spec;  // kHostScalar
  const auto backend = exec::make_backend(spec, 0.5, nullptr);
  bp::SoaTile routed(f.region.width, f.region.height);
  sweep_plan(f, *backend, routed);
  EXPECT_TRUE(tiles_equal(expected, routed));
}

TEST(TileBackend, SimdSweepMatchesScalarBytes) {
  // Every ISA runs the scalar sweep's arithmetic (kernel.h), so the SIMD
  // backend's replay is execute_plan's image byte for byte.
  if (!bp::asr_simd_available()) GTEST_SKIP() << "no vector ISA usable";
  const PlanFixture f = make_plan_fixture();
  bp::SoaTile scalar(f.region.width, f.region.height);
  ASSERT_TRUE(service::execute_plan(*f.plan, *f.pulses, scalar, nullptr));

  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kHostSimd;
  const auto backend = exec::make_backend(spec, 0.5, nullptr);
  bp::SoaTile simd(f.region.width, f.region.height);
  sweep_plan(f, *backend, simd);
  EXPECT_TRUE(tiles_equal(simd, scalar));
}

TEST(TileBackend, OffloadSimRescalesMeasuredTime) {
  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kOffloadSim;  // KNC vs dual-Xeon host
  const auto backend = exec::make_backend(spec, 0.5, nullptr);
  // KNC effective rate (1920 * 0.28) ~ 1.94x the dual Xeon (660 * 0.42):
  // a second of measured host arithmetic simulates to ~0.52 s.
  const double simulated = backend->simulated_seconds(1.0);
  EXPECT_NEAR(simulated, (660.0 * 0.42) / (1920.0 * 0.28), 1e-9);
  // The capability prior carries the same ratio (host scalar = 1).
  EXPECT_NEAR(backend->rate_prior(), (1920.0 * 0.28) / (660.0 * 0.42), 1e-9);
}

// --- BackendSet split / partition ----------------------------------------

TEST(BackendSet, SplitUsesPriorsUntilEveryBackendObserved) {
  std::vector<exec::BackendSpec> specs(2);
  specs[0].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[1].kind = exec::BackendSpec::Kind::kOffloadSim;
  specs[1].name = "knc";
  obs::Registry reg;
  exec::BackendSet set(specs, 0.5, &reg);

  // No observations yet: split proportional to capability priors.
  const double p0 = set.backend(0).rate_prior();
  const double p1 = set.backend(1).rate_prior();
  auto split = set.split();
  ASSERT_EQ(split.size(), 2u);
  EXPECT_NEAR(split[0], p0 / (p0 + p1), 1e-12);
  EXPECT_NEAR(split[1], p1 / (p0 + p1), 1e-12);

  // One backend observed, the other not: still priors (observing only the
  // fast backend must not starve the unobserved one).
  set.backend(0).record(/*backprojections=*/1e6, /*measured_seconds=*/1.0);
  split = set.split();
  EXPECT_NEAR(split[0], p0 / (p0 + p1), 1e-12);

  // Both observed: split follows the observed rates. Make the "slow"
  // backend 3x faster than the other in simulated terms.
  set.backend(1).record(3e6, set.backend(1).simulated_seconds(1.0));
  split = set.split();
  const double r0 = set.backend(0).observed_rate();
  const double r1 = set.backend(1).observed_rate();
  EXPECT_GT(r1, r0);
  EXPECT_NEAR(split[0], r0 / (r0 + r1), 1e-12);
  EXPECT_NEAR(split[1], r1 / (r0 + r1), 1e-12);
}

TEST(BackendSet, PartitionBoundariesAreMonotoneAndComplete) {
  std::vector<exec::BackendSpec> specs(3);
  specs[0].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[0].name = "a";
  specs[1].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[1].name = "b";
  specs[2].kind = exec::BackendSpec::Kind::kOffloadSim;
  specs[2].name = "c";
  exec::BackendSet set(specs, 0.5, nullptr);

  for (const Index n : {0, 1, 2, 3, 7, 64, 1001}) {
    const auto bounds = set.partition(n);
    ASSERT_EQ(bounds.size(), 4u);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), n);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LE(bounds[i - 1], bounds[i]) << "n=" << n << " i=" << i;
    }
  }
}

// --- service end-to-end through the router -------------------------------

ImageFormationRequest request_for(const PlanFixture& f) {
  ImageFormationRequest req;
  req.grid = f.scenario.grid;
  req.pulses = f.pulses;
  req.asr_block_w = req.asr_block_h = 16;
  return req;
}

/// The image a fresh service forms for `f`, twice: an unkept miss, whose
/// tasks build each block's tables on the fly, then a kept miss, whose
/// tasks build the plan's tables. Both must give the same bytes.
Grid2D<CFloat> form_via_service(const PlanFixture& f,
                                std::vector<exec::BackendSpec> backends,
                                int workers = 2, bool steal = true) {
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = workers;
  sc.steal = steal;
  sc.metrics = &reg;
  sc.backends = std::move(backends);
  ImageFormationService service(sc);
  std::vector<Grid2D<CFloat>> images;
  for (const bool unkept : {true, false}) {
    auto outcome = service.submit(request_for(f));
    EXPECT_TRUE(outcome.admitted());
    const JobResult& result = outcome.handle->wait();
    EXPECT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_FALSE(result.plan_cache_hit);
    EXPECT_EQ(result.plan_unkept, unkept);
    images.push_back(result.image);
  }
  EXPECT_TRUE(images[0] == images[1]);
  return images[1];
}

bool images_equal(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  for (Index y = 0; y < a.height(); ++y) {
    for (Index x = 0; x < a.width(); ++x) {
      if (a.at(x, y) != b.at(x, y)) return false;
    }
  }
  return true;
}

TEST(ServiceBackends, ScalarBackendSetIsByteIdenticalToLegacyPath) {
  const PlanFixture f = make_plan_fixture();
  const Grid2D<CFloat> legacy = form_via_service(f, {});

  exec::BackendSpec scalar;  // kHostScalar
  const Grid2D<CFloat> routed = form_via_service(f, {scalar});
  EXPECT_TRUE(images_equal(legacy, routed));

  // Several scalar backends partition the block range differently but
  // sweep disjoint pixel rectangles with the same per-block pulse order —
  // still byte-identical.
  exec::BackendSpec second;
  second.name = "scalar2";
  const Grid2D<CFloat> split2 = form_via_service(f, {scalar, second});
  EXPECT_TRUE(images_equal(legacy, split2));
}

TEST(ServiceBackends, SimdBackendMatchesLegacyBytes) {
  // A service routed over one SIMD backend delivers the backend-less
  // service's image byte for byte: one ASR byte lineage on every kernel.
  if (!bp::asr_simd_available()) GTEST_SKIP() << "no vector ISA usable";
  const PlanFixture f = make_plan_fixture();
  const Grid2D<CFloat> legacy = form_via_service(f, {});

  exec::BackendSpec simd;
  simd.kind = exec::BackendSpec::Kind::kHostSimd;
  const Grid2D<CFloat> routed = form_via_service(f, {simd});
  EXPECT_TRUE(images_equal(routed, legacy));
}

TEST(ServiceBackends, MissJobsMatchPrebuiltPlanReplay) {
  // A fresh service's first job is an unkept miss, whose tasks build each
  // block's tables on the fly, and its second a kept miss, whose tasks
  // build each block's plan tables just before sweeping it. Either way the
  // tables are the prebuilt plan's bytes: the scalar path equals
  // execute_plan of build_formation_plan,
  // and a SIMD set equals a one-worker SIMD replay of that plan, for any
  // worker count and steal setting. 41 px leaves 9 px edge blocks, whose
  // odd table lengths sit in padded buffer slots.
  exec::BackendSpec simd;
  simd.kind = exec::BackendSpec::Kind::kHostSimd;
  for (const Index image : {48, 41}) {
    const PlanFixture f = make_plan_fixture(image);
    bp::SoaTile scalar(f.region.width, f.region.height);
    ASSERT_TRUE(service::execute_plan(*f.plan, *f.pulses, scalar, nullptr));
    const Grid2D<CFloat> expected_scalar = grid_of(scalar);

    Grid2D<CFloat> expected_simd(0, 0);
    if (bp::asr_simd_available()) {
      obs::Registry reg;
      exec::ExecOptions options;
      options.workers = 1;
      options.metrics = &reg;
      exec::TileExecutor executor(std::move(options));
      auto tile = std::make_shared<bp::SoaTile>(f.region.width, f.region.height);
      executor.run(make_plan_replay_group(
          f.plan, f.pulses, 1, 0, tile, nullptr, nullptr, 0, -1,
          std::make_shared<exec::BackendSet>(
              std::vector<exec::BackendSpec>{simd}, 0.5, &reg)));
      expected_simd = grid_of(*tile);
    }

    for (const int workers : {1, 3}) {
      for (const bool steal : {false, true}) {
        EXPECT_TRUE(images_equal(form_via_service(f, {}, workers, steal),
                                 expected_scalar))
            << image << " px, " << workers << " workers, steal " << steal;
        if (expected_simd.width() == 0) continue;
        EXPECT_TRUE(images_equal(form_via_service(f, {simd}, workers, steal),
                                 expected_simd))
            << "SIMD, " << image << " px, " << workers << " workers, steal "
            << steal;
      }
    }
  }
}

TEST(ServiceBackends, MixedSetAdaptsSplitAcrossJobs) {
  // scalar + SIMD + simulated coprocessor: run several jobs and check the
  // split gauges end up reflecting observed rates (every backend swept at
  // least once, rates positive, split summing to ~1000 permille).
  const PlanFixture f = make_plan_fixture();
  std::vector<exec::BackendSpec> specs(2);
  specs[0].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[1].kind = exec::BackendSpec::Kind::kOffloadSim;
  specs[1].name = "knc";

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  sc.backends = specs;
  {
    ImageFormationService service(sc);
    for (int job = 0; job < 4; ++job) {
      auto outcome = service.submit(request_for(f));
      ASSERT_TRUE(outcome.admitted());
      ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);
    }
  }
  if constexpr (obs::kEnabled) {
    EXPECT_GE(reg.counter("backend.scalar.sweeps").value(), 1);
    EXPECT_GE(reg.counter("backend.knc.sweeps").value(), 1);
    EXPECT_GT(reg.gauge("backend.scalar.rate_bp_s").value(), 0);
    EXPECT_GT(reg.gauge("backend.knc.rate_bp_s").value(), 0);
    const auto permille = reg.gauge("backend.scalar.split_permille").value() +
                          reg.gauge("backend.knc.split_permille").value();
    EXPECT_NEAR(static_cast<double>(permille), 1000.0, 2.0);
  }
}

}  // namespace
}  // namespace sarbp::service
