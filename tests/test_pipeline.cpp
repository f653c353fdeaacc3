// Pipeline-stage tests: affine fitting, registration shift recovery, CCD
// (incremental vs direct equality, change sensitivity), CFAR statistics,
// and the full threaded surveillance pipeline end-to-end, its accumulate
// stage's bytes included.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/snr.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "pipeline/affine.h"
#include "pipeline/ccd.h"
#include "pipeline/cfar.h"
#include "pipeline/pipeline.h"
#include "pipeline/registration.h"
#include "test_helpers.h"

namespace sarbp::pipeline {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;
using sarbp::testing::slice;

TEST(Affine, IdentityMapsPointsToThemselves) {
  const AffineTransform t = AffineTransform::identity();
  double x = 0, y = 0;
  t.apply(3.5, -2.25, x, y);
  EXPECT_DOUBLE_EQ(x, 3.5);
  EXPECT_DOUBLE_EQ(y, -2.25);
}

TEST(Affine, FitRecoversPureTranslation) {
  std::vector<ControlPointMatch> matches;
  for (double px : {10.0, 50.0, 90.0}) {
    for (double py : {20.0, 60.0}) {
      matches.push_back({px, py, 2.5, -1.75, 1.0});
    }
  }
  const AffineTransform t = fit_affine(matches);
  EXPECT_NEAR(t.axx, 1.0, 1e-9);
  EXPECT_NEAR(t.axy, 0.0, 1e-9);
  EXPECT_NEAR(t.tx, 2.5, 1e-9);
  EXPECT_NEAR(t.ayy, 1.0, 1e-9);
  EXPECT_NEAR(t.ty, -1.75, 1e-9);
}

TEST(Affine, FitRecoversGeneralAffine) {
  // Ground truth: x' = 1.02 x - 0.03 y + 4; y' = 0.01 x + 0.98 y - 2.
  const AffineTransform truth{1.02, -0.03, 4.0, 0.01, 0.98, -2.0};
  Rng rng(7);
  std::vector<ControlPointMatch> matches;
  for (int i = 0; i < 12; ++i) {
    ControlPointMatch m;
    m.x = rng.uniform(0, 200);
    m.y = rng.uniform(0, 200);
    double tx = 0, ty = 0;
    truth.apply(m.x, m.y, tx, ty);
    m.dx = tx - m.x;
    m.dy = ty - m.y;
    matches.push_back(m);
  }
  const AffineTransform t = fit_affine(matches);
  EXPECT_NEAR(t.axx, truth.axx, 1e-9);
  EXPECT_NEAR(t.axy, truth.axy, 1e-9);
  EXPECT_NEAR(t.tx, truth.tx, 1e-7);
  EXPECT_NEAR(t.ayx, truth.ayx, 1e-9);
  EXPECT_NEAR(t.ayy, truth.ayy, 1e-9);
  EXPECT_NEAR(t.ty, truth.ty, 1e-7);
}

TEST(Affine, WeightsDownweightOutliers) {
  std::vector<ControlPointMatch> matches;
  for (double px : {10.0, 50.0, 90.0, 130.0}) {
    for (double py : {20.0, 60.0, 100.0}) {
      matches.push_back({px, py, 1.0, 0.0, 1.0});
    }
  }
  // A wild outlier with (near-)zero confidence must not move the fit.
  matches.push_back({70.0, 70.0, 500.0, -400.0, 1e-9});
  const AffineTransform t = fit_affine(matches);
  EXPECT_NEAR(t.tx, 1.0, 1e-4);
  EXPECT_NEAR(t.ty, 0.0, 1e-4);
}

TEST(Affine, TooFewPointsThrow) {
  std::vector<ControlPointMatch> two = {{0, 0, 1, 1, 1}, {5, 5, 1, 1, 1}};
  EXPECT_THROW(fit_affine(two), PreconditionError);
}

TEST(Affine, CollinearPointsThrow) {
  std::vector<ControlPointMatch> collinear = {
      {0, 0, 1, 1, 1}, {10, 0, 1, 1, 1}, {20, 0, 1, 1, 1}};
  EXPECT_THROW(fit_affine(collinear), PreconditionError);
}

/// Synthetic speckle image with structure (random complex field smoothed
/// by local sums) so patch correlation has something to lock onto.
Grid2D<CFloat> speckle_image(Index w, Index h, std::uint64_t seed) {
  Rng rng(seed);
  Grid2D<CFloat> raw(w, h);
  for (auto& v : raw.flat()) {
    v = CFloat(static_cast<float>(rng.normal()),
               static_cast<float>(rng.normal()));
  }
  Grid2D<CFloat> out(w, h);
  for (Index y = 1; y + 1 < h; ++y) {
    for (Index x = 1; x + 1 < w; ++x) {
      CFloat acc{};
      for (Index dy = -1; dy <= 1; ++dy) {
        for (Index dx = -1; dx <= 1; ++dx) acc += raw.at(x + dx, y + dy);
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

/// Integer-shifted copy: out(x, y) = src(x - sx, y - sy).
Grid2D<CFloat> shifted(const Grid2D<CFloat>& src, Index sx, Index sy) {
  Grid2D<CFloat> out(src.width(), src.height());
  for (Index y = 0; y < src.height(); ++y) {
    for (Index x = 0; x < src.width(); ++x) {
      const Index ox = x - sx;
      const Index oy = y - sy;
      if (ox >= 0 && ox < src.width() && oy >= 0 && oy < src.height()) {
        out.at(x, y) = src.at(ox, oy);
      }
    }
  }
  return out;
}

/// A pool of `workers` workers for the registration tests.
exec::TileExecutor make_pool(int workers) {
  exec::ExecOptions options;
  options.workers = workers;
  return exec::TileExecutor(std::move(options));
}

TEST(Registration, RecoversKnownShift) {
  const Grid2D<CFloat> reference = speckle_image(160, 160, 11);
  const Grid2D<CFloat> current = shifted(reference, 3, -2);
  RegistrationParams params;
  params.patch = 31;
  const Registrar registrar(params);
  exec::TileExecutor pool = make_pool(2);
  AffineTransform t;
  const Grid2D<CFloat> registered =
      registrar.register_image(current, reference, pool, &t);
  EXPECT_NEAR(t.tx, 3.0, 0.3);
  EXPECT_NEAR(t.ty, -2.0, 0.3);
  EXPECT_NEAR(t.axx, 1.0, 0.01);
  EXPECT_NEAR(t.ayy, 1.0, 0.01);
  // The registered image should match the reference far better than the
  // unregistered one over the interior.
  double err_before = 0.0, err_after = 0.0, energy = 0.0;
  for (Index y = 20; y < 140; ++y) {
    for (Index x = 20; x < 140; ++x) {
      err_before += std::norm(current.at(x, y) - reference.at(x, y));
      err_after += std::norm(registered.at(x, y) - reference.at(x, y));
      energy += std::norm(reference.at(x, y));
    }
  }
  EXPECT_LT(err_after, 0.1 * err_before);
}

TEST(Registration, IdenticalImagesGiveIdentityTransform) {
  const Grid2D<CFloat> img = speckle_image(128, 128, 13);
  const Registrar registrar({});
  exec::TileExecutor pool = make_pool(2);
  AffineTransform t;
  (void)registrar.register_image(img, img, pool, &t);
  EXPECT_NEAR(t.tx, 0.0, 0.1);
  EXPECT_NEAR(t.ty, 0.0, 0.1);
}

TEST(Registration, MatchesCarryConfidence) {
  const Grid2D<CFloat> img = speckle_image(128, 128, 17);
  const Registrar registrar({});
  exec::TileExecutor pool = make_pool(2);
  const auto matches = registrar.match_control_points(img, img, pool);
  EXPECT_EQ(matches.size(), 16u);
  for (const auto& m : matches) {
    EXPECT_GT(m.confidence, 0.5);  // self-correlation is strong
    EXPECT_NEAR(m.dx, 0.0, 0.01);
    EXPECT_NEAR(m.dy, 0.0, 0.01);
  }
}

TEST(Registration, ImageTooSmallThrows) {
  const Grid2D<CFloat> img = speckle_image(40, 40, 19);
  const Registrar registrar({});
  exec::TileExecutor pool = make_pool(2);
  EXPECT_THROW((void)registrar.match_control_points(img, img, pool),
               PreconditionError);
}

TEST(Registration, SameBytesOnOneAndFourWorkers) {
  // Each control point and each resampled row is an item that writes its
  // own outputs, so the matches, the fitted transform and the registered
  // image are the same bytes whatever the pool's width and schedule.
  const Grid2D<CFloat> reference = speckle_image(160, 160, 11);
  const Grid2D<CFloat> current = shifted(reference, 3, -2);
  RegistrationParams params;
  params.control_points_x = 5;
  params.control_points_y = 3;
  const Registrar registrar(params);
  const auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  exec::TileExecutor one = make_pool(1);
  const auto matches = registrar.match_control_points(current, reference, one);
  AffineTransform fitted;
  const Grid2D<CFloat> image =
      registrar.register_image(current, reference, one, &fitted);
  exec::TileExecutor four = make_pool(4);
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE(run);
    EXPECT_TRUE(same_bytes(
        registrar.match_control_points(current, reference, four), matches));
    AffineTransform again;
    const Grid2D<CFloat> registered =
        registrar.register_image(current, reference, four, &again);
    EXPECT_EQ(std::memcmp(&again, &fitted, sizeof fitted), 0);
    EXPECT_TRUE(same_bytes(registered.flat(), image.flat()));
  }
}

TEST(Ccd, IdenticalImagesAreFullyCoherent) {
  const Grid2D<CFloat> img = speckle_image(64, 64, 23);
  const auto corr = ccd(img, img, {.window = 9});
  for (Index y = 0; y < 64; ++y) {
    for (Index x = 0; x < 64; ++x) {
      ASSERT_NEAR(corr.at(x, y), 1.0f, 1e-4) << x << "," << y;
    }
  }
}

TEST(Ccd, IndependentImagesDecorrelate) {
  const Grid2D<CFloat> a = speckle_image(64, 64, 29);
  const Grid2D<CFloat> b = speckle_image(64, 64, 31);
  const auto corr = ccd(a, b, {.window = 11});
  double mean = 0.0;
  for (const float v : corr.flat()) mean += v;
  mean /= static_cast<double>(corr.size());
  EXPECT_LT(mean, 0.5);
}

TEST(Ccd, IncrementalEqualsDirect) {
  const Grid2D<CFloat> a = speckle_image(48, 40, 37);
  Grid2D<CFloat> b = speckle_image(48, 40, 41);
  // Mix so there is partial correlation structure.
  for (Index i = 0; i < b.size(); ++i) {
    b.flat()[static_cast<std::size_t>(i)] =
        0.7f * a.flat()[static_cast<std::size_t>(i)] +
        0.3f * b.flat()[static_cast<std::size_t>(i)];
  }
  for (Index window : {3, 7, 11}) {
    const auto fast = ccd(a, b, {.window = window});
    const auto direct = ccd_direct(a, b, {.window = window});
    for (Index y = 0; y < a.height(); ++y) {
      for (Index x = 0; x < a.width(); ++x) {
        ASSERT_NEAR(fast.at(x, y), direct.at(x, y), 1e-4)
            << "window " << window << " at " << x << "," << y;
      }
    }
  }
}

TEST(Ccd, LocalChangeDropsCorrelationLocally) {
  const Grid2D<CFloat> reference = speckle_image(96, 96, 43);
  Grid2D<CFloat> current = reference;
  // Replace a small patch with new speckle (a "change").
  Rng rng(47);
  for (Index y = 40; y < 56; ++y) {
    for (Index x = 40; x < 56; ++x) {
      current.at(x, y) = CFloat(static_cast<float>(rng.normal() * 3),
                                static_cast<float>(rng.normal() * 3));
    }
  }
  const auto corr = ccd(current, reference, {.window = 9});
  EXPECT_LT(corr.at(48, 48), 0.6f);
  EXPECT_GT(corr.at(10, 10), 0.95f);
  EXPECT_GT(corr.at(85, 85), 0.95f);
}

TEST(Ccd, EvenWindowRejected) {
  const Grid2D<CFloat> img = speckle_image(16, 16, 53);
  EXPECT_THROW((void)ccd(img, img, {.window = 8}), PreconditionError);
}

TEST(Cfar, DetectsInjectedChange) {
  // Correlation map: high everywhere except one low blob.
  Grid2D<float> corr(96, 96, 0.97f);
  for (Index y = 30; y < 36; ++y) {
    for (Index x = 50; x < 56; ++x) corr.at(x, y) = 0.2f;
  }
  CfarParams params;
  params.window = 21;
  params.guard = 7;
  const CfarResult result = cfar_detect(corr, params);
  ASSERT_FALSE(result.detections.empty());
  for (const auto& d : result.detections) {
    EXPECT_GE(d.x, 50);
    EXPECT_LT(d.x, 56);
    EXPECT_GE(d.y, 30);
    EXPECT_LT(d.y, 36);
    EXPECT_GT(d.statistic, params.scale);
  }
  EXPECT_EQ(result.candidates, 36);
}

TEST(Cfar, UniformDecorrelationYieldsNoDetections) {
  // Everything equally decorrelated: no pixel stands out above the local
  // background, so CFAR stays quiet (the "constant false alarm" property).
  Grid2D<float> corr(64, 64, 0.5f);
  const CfarResult result = cfar_detect(corr, {});
  EXPECT_TRUE(result.detections.empty());
  // Default border margin = window/2 = 12: only the interior is tested.
  EXPECT_EQ(result.candidates, (64 - 24) * (64 - 24));
}

TEST(Cfar, CandidateThresholdLimitsWork) {
  Grid2D<float> corr(32, 32, 0.95f);
  CfarParams params;
  params.candidate_correlation = 0.5;
  const CfarResult result = cfar_detect(corr, params);
  EXPECT_EQ(result.candidates, 0);
  EXPECT_TRUE(result.detections.empty());
}

TEST(Cfar, BadWindowsThrow) {
  Grid2D<float> corr(16, 16, 1.0f);
  CfarParams params;
  params.window = 10;  // even
  EXPECT_THROW(cfar_detect(corr, params), PreconditionError);
  params.window = 9;
  params.guard = 9;  // guard not smaller than window
  EXPECT_THROW(cfar_detect(corr, params), PreconditionError);
}

TEST(Pipeline, EndToEndDetectsAppearingReflector) {
  // Two frames: a reflector appears between them; the pipeline must flag
  // it via CFAR at (approximately) its pixel.
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 96;
  cfg.perturbation_sigma = 0.02;
  SmallScenario s = make_scenario(cfg);

  // Scene: dense persistent clutter (the coherent background CCD needs)
  // plus one strong transient that appears for frame 2.
  Rng rng(61);
  sim::ReflectorScene scene = sim::make_clutter_field(s.grid, 3, 0.8, rng);
  const Index change_px = 30, change_py = 60;
  sim::Reflector transient;
  transient.position = s.grid.position(change_px, change_py);
  transient.amplitude = 6.0;
  transient.appear_s = 0.5;  // present only in the second batch
  scene.add(transient);

  // Repeat-pass collection: both batches sweep the *same* aspect angles
  // (coherent change detection requires revisiting the geometry — disjoint
  // apertures would decorrelate the clutter speckle by themselves). The
  // aperture is sized to resolve the 0.5 m pixels: delta_theta ~
  // lambda / (2 * rho) ~ 0.031 rad over the 0.475 s batch.
  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.066;
  orbit.prf_hz = 200.0;
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.02;
  Rng traj_rng(62);
  auto poses1_v = geometry::circular_orbit(orbit, errors, cfg.pulses, traj_rng);
  Rng traj_rng2(64);
  auto poses2_v = geometry::circular_orbit(orbit, errors, cfg.pulses, traj_rng2);
  for (auto& pose : poses2_v) pose.time_s += 1.0;  // second pass, 1 s later
  const std::span<const geometry::PulsePose> poses1(poses1_v);
  const std::span<const geometry::PulsePose> poses2(poses2_v);

  sim::CollectorParams collector;
  Rng col_rng(63);
  auto batch1 = sim::collect(collector, s.grid, scene, poses1, col_rng);
  auto batch2 = sim::collect(collector, s.grid, scene, poses2, col_rng);

  PipelineConfig config;
  config.accumulation_factor = 0;  // frames are independent batches
  config.registration.patch = 15;
  config.registration.control_points_x = 3;
  config.registration.control_points_y = 3;
  config.ccd.window = 9;
  config.cfar.window = 15;
  config.cfar.guard = 5;
  config.cfar.candidate_correlation = 0.7;
  config.cfar.scale = 2.0;
  config.backprojection.threads = 1;

  SurveillancePipeline pipeline(s.grid, config);
  ASSERT_TRUE(pipeline.push_pulses(std::move(batch1)));
  ASSERT_TRUE(pipeline.push_pulses(std::move(batch2)));
  pipeline.close_input();

  const auto frame0 = pipeline.pop_result();
  ASSERT_TRUE(frame0.has_value());
  EXPECT_TRUE(frame0->is_reference);
  EXPECT_EQ(frame0->frame, 0);
  EXPECT_TRUE(frame0->correlation.empty());

  const auto frame1 = pipeline.pop_result();
  ASSERT_TRUE(frame1.has_value());
  EXPECT_FALSE(frame1->is_reference);
  ASSERT_FALSE(frame1->correlation.empty());
  ASSERT_FALSE(frame1->cfar.detections.empty());
  // At least one detection lands near the transient reflector.
  bool near_change = false;
  for (const auto& d : frame1->cfar.detections) {
    if (std::abs(d.x - change_px) <= 6 && std::abs(d.y - change_py) <= 6) {
      near_change = true;
    }
  }
  EXPECT_TRUE(near_change);

  EXPECT_FALSE(pipeline.pop_result().has_value());  // drained

  const SectionTimes times = pipeline.cumulative_stage_times();
  EXPECT_GT(times.get("backprojection"), 0.0);
  EXPECT_GT(times.get("registration"), 0.0);
  EXPECT_GT(times.get("ccd"), 0.0);
}

TEST(Pipeline, FramesEmergeInOrderUnderBackpressure) {
  // Queue depth 2 with 5 frames pushed as fast as possible: the producer
  // blocks on backpressure, the stages stay pipelined, and results emerge
  // strictly in frame order.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  PipelineConfig config;
  config.queue_depth = 2;
  config.registration.patch = 15;
  config.registration.control_points_x = 3;
  config.registration.control_points_y = 3;
  config.ccd.window = 5;
  config.backprojection.threads = 1;
  SurveillancePipeline pipeline(s.grid, config);
  for (int f = 0; f < 5; ++f) {
    sim::PhaseHistory copy = s.history;
    ASSERT_TRUE(pipeline.push_pulses(std::move(copy)));
  }
  pipeline.close_input();
  Index expected = 0;
  while (auto frame = pipeline.pop_result()) {
    EXPECT_EQ(frame->frame, expected++);
  }
  EXPECT_EQ(expected, 5);
}

TEST(Pipeline, PushAfterCloseFails) {
  geometry::ImageGrid grid(64, 64, 0.5);
  PipelineConfig config;
  SurveillancePipeline pipeline(grid, config);
  pipeline.close_input();
  sim::PhaseHistory batch(1, 16, 0.5, 64.0);
  EXPECT_FALSE(pipeline.push_pulses(std::move(batch)));
  EXPECT_FALSE(pipeline.pop_result().has_value());
}

TEST(Pipeline, DrainsCleanlyWithNoInput) {
  geometry::ImageGrid grid(96, 96, 0.5);
  PipelineConfig config;
  SurveillancePipeline pipeline(grid, config);
  pipeline.close_input();
  EXPECT_FALSE(pipeline.pop_result().has_value());
}

TEST(Pipeline, DestructionWithUncollectedResultsDoesNotDeadlock) {
  // Regression (shutdown deadlock): with queue_depth=1, several pushed
  // batches, and *nothing* collected, the destructor used to hang — it
  // closed result_queue_, post_processing_stage broke out of its loop
  // without closing image_queue_, and backprojection_stage stayed blocked
  // forever pushing into the full image_queue_ while the destructor joined
  // it. The post stage must close image_queue_ on its early-exit path.
  //
  // Run under a watchdog so the seed bug shows up as a test timeout, not a
  // hung test runner.
  auto scenario = [] {
    ScenarioConfig cfg;
    cfg.image = 48;
    cfg.pulses = 8;
    const SmallScenario s = make_scenario(cfg);
    PipelineConfig config;
    config.queue_depth = 1;
    config.registration.patch = 15;
    config.registration.control_points_x = 3;
    config.registration.control_points_y = 3;
    config.ccd.window = 5;
    config.backprojection.threads = 1;
    SurveillancePipeline pipeline(s.grid, config);
    // Six batches: three fill result_queue_ (depth+2), one is in flight in
    // each stage, one fills image_queue_ — leaving the backprojection
    // stage blocked mid-push. (More than seven would block the producer
    // itself, since nothing is ever collected.)
    for (int f = 0; f < 6; ++f) {
      sim::PhaseHistory copy = s.history;
      if (!pipeline.push_pulses(std::move(copy))) break;
    }
    // Collect nothing; destroy with frames still queued everywhere.
  };
  std::packaged_task<void()> task(scenario);
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  const auto status = done.wait_for(std::chrono::seconds(60));
  if (status != std::future_status::ready) {
    runner.detach();  // deadlocked beyond recovery; fail loudly
    FAIL() << "pipeline destruction deadlocked (image_queue_ never closed)";
  }
  runner.join();
}

TEST(Pipeline, RecordsStageSpansAndQueueGauges) {
  // The observability contract the BENCH trajectories rely on: after a
  // pipeline run, its registry holds per-stage spans, frame latency, and
  // named queue metrics (read only when telemetry is compiled in; the
  // stage totals hold either way).
  obs::Registry metrics;
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  PipelineConfig config;
  config.queue_depth = 2;
  config.registration.patch = 15;
  config.registration.control_points_x = 3;
  config.registration.control_points_y = 3;
  config.ccd.window = 5;
  config.backprojection.threads = 1;
  config.metrics = &metrics;
  {
    SurveillancePipeline pipeline(s.grid, config);
    for (int f = 0; f < 3; ++f) {
      sim::PhaseHistory copy = s.history;
      ASSERT_TRUE(pipeline.push_pulses(std::move(copy)));
    }
    pipeline.close_input();
    int collected = 0;
    while (pipeline.pop_result()) ++collected;
    EXPECT_EQ(collected, 3);

    const SectionTimes times = pipeline.cumulative_stage_times();
    EXPECT_GT(times.get("backprojection"), 0.0);
    EXPECT_GT(times.get("registration"), 0.0);
  }
  if (!obs::kEnabled) return;
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("pipeline.stage.backprojection").count, 3u);
  EXPECT_EQ(snap.histograms.at("pipeline.stage.registration").count, 2u);
  EXPECT_EQ(snap.histograms.at("pipeline.frame.latency_s").count, 3u);
  EXPECT_EQ(snap.counters.at("pipeline.frames"), 3u);
  EXPECT_EQ(snap.counters.at("queue.pipeline.pulse.pushed"), 3u);
  EXPECT_EQ(snap.counters.at("queue.pipeline.image.popped"), 3u);
  EXPECT_EQ(snap.counters.at("queue.pipeline.result.popped"), 3u);
  EXPECT_GE(snap.gauges.at("queue.pipeline.image.depth").max, 1);
  // Every queue was closed exactly once during orderly shutdown.
  EXPECT_EQ(snap.counters.at("queue.pipeline.pulse.close"), 1u);
  EXPECT_EQ(snap.counters.at("queue.pipeline.image.close"), 1u);
  EXPECT_EQ(snap.counters.at("queue.pipeline.result.close"), 1u);
}

TEST(Pipeline, AccumulatorCombinesBatchesAcrossFrames) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 16;
  SmallScenario s = make_scenario(cfg);

  PipelineConfig config;
  config.accumulation_factor = 3;
  config.backprojection.threads = 1;
  SurveillancePipeline pipeline(s.grid, config);

  // Push the same batch twice; frame 1's image must have ~2x amplitude
  // (sum of two identical batch results).
  sim::PhaseHistory copy1 = s.history;
  sim::PhaseHistory copy2 = s.history;
  ASSERT_TRUE(pipeline.push_pulses(std::move(copy1)));
  ASSERT_TRUE(pipeline.push_pulses(std::move(copy2)));
  pipeline.close_input();
  const auto f0 = pipeline.pop_result();
  const auto f1 = pipeline.pop_result();
  ASSERT_TRUE(f0.has_value());
  ASSERT_TRUE(f1.has_value());
  // Frame 1 is registered against frame 0; the transform is near identity,
  // so the amplitude ratio survives registration.
  double e0 = 0.0, e1 = 0.0;
  for (Index i = 0; i < f0->image.size(); ++i) {
    e0 += std::norm(f0->image.flat()[static_cast<std::size_t>(i)]);
    e1 += std::norm(f1->image.flat()[static_cast<std::size_t>(i)]);
  }
  EXPECT_NEAR(e1 / e0, 4.0, 0.8);  // amplitude 2x -> power 4x
}

TEST(Pipeline, FramesAreTheResumOfTheLastBatches) {
  // The accumulate stage's bytes: a frame's image is the straight sum,
  // oldest first from +0, of the last k+1 batch images, at every k. Frame
  // 0 is the reference as formed; every later frame is registered, so the
  // expected image is resampled under the frame's own fitted transform.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 32;
  const SmallScenario s = make_scenario(cfg);
  constexpr Index kBatch = 8;
  constexpr Index kFrames = 4;

  obs::Registry reg;
  PipelineConfig config;
  config.accumulation_factor = 1;  // windows of 2: frames 2 and 3 evict
  config.backprojection.threads = 1;
  config.metrics = &reg;
  SurveillancePipeline pipeline(s.grid, config);
  const exec::Backprojector driver(s.grid, config.backprojection);
  std::vector<Grid2D<CFloat>> batches;
  for (Index f = 0; f < kFrames; ++f) {
    sim::PhaseHistory batch = slice(s.history, f * kBatch, (f + 1) * kBatch);
    batches.push_back(driver.form_image(batch));
    ASSERT_TRUE(pipeline.push_pulses(std::move(batch)));
  }
  pipeline.close_input();

  const Registrar registrar(config.registration);
  exec::TileExecutor pool = make_pool(2);
  for (Index f = 0; f < kFrames; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const auto result = pipeline.pop_result();
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->frame, f);
    Grid2D<CFloat> resum(cfg.image, cfg.image);
    for (Index b = std::max<Index>(f - 1, 0); b <= f; ++b) {
      const auto batch = batches[static_cast<std::size_t>(b)].flat();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        resum.flat()[i] += batch[i];
      }
    }
    EXPECT_EQ(result->image, f == 0 ? resum
                                    : registrar.resample(
                                          resum, result->alignment, pool));
  }
  EXPECT_FALSE(pipeline.pop_result().has_value());
}

TEST(Pipeline, CumulativeStageTimesZeroWithNoFrames) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 16;
  SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  PipelineConfig config;
  config.metrics = &reg;  // private registry: no cross-test accumulation
  config.backprojection.threads = 1;
  SurveillancePipeline pipeline(s.grid, config);
  pipeline.close_input();
  EXPECT_FALSE(pipeline.pop_result().has_value());

  // No frames ever entered the pipeline, so every stage total is zero.
  const SectionTimes times = pipeline.cumulative_stage_times();
  EXPECT_EQ(times.total(), 0.0);
  for (const char* stage :
       {"backprojection", "accumulate", "registration", "ccd", "cfar"}) {
    EXPECT_EQ(times.get(stage), 0.0) << stage;
  }
}

TEST(Pipeline, PopResultNulloptImmediatelyAfterCloseOnEmptyStream) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 16;
  SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  PipelineConfig config;
  config.metrics = &reg;
  config.backprojection.threads = 1;
  SurveillancePipeline pipeline(s.grid, config);
  pipeline.close_input();

  // End-of-stream must propagate promptly through both stage threads; a
  // blocking pop here would be the shutdown deadlock the close protocol
  // exists to prevent.
  auto result = std::async(std::launch::async,
                           [&] { return pipeline.pop_result(); });
  ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(result.get().has_value());

  // Still nullopt on every later pop, and pushes are refused.
  EXPECT_FALSE(pipeline.pop_result().has_value());
  EXPECT_FALSE(pipeline.push_pulses(sim::PhaseHistory(1, 8, 1.0, 40.0)));
}

}  // namespace
}  // namespace sarbp::pipeline
