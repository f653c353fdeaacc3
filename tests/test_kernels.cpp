// Backprojection kernel tests: every production kernel against the
// full-double reference (SNR floors per variant), SIMD/scalar parity,
// loop-order invariance, ASR block-size accuracy ordering (the Fig. 8
// property), additivity over pulse ranges and regions, and the end-to-end
// point-target focusing integration test.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <optional>
#include <vector>

#include "backprojection/kernel.h"
#include "common/snr.h"
#include "test_helpers.h"

namespace sarbp::bp {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

class KernelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.image = 128;
    cfg.pulses = 48;
    // Dense (noise-filled) pulse data: every pixel carries signal, so the
    // image SNR reflects the *average* phase error — the quantity the ASR
    // block-size analysis predicts — rather than the error at a handful of
    // reflector peaks.
    cfg.fidelity = sim::CollectionFidelity::kRandom;
    scenario_ = new SmallScenario(make_scenario(cfg));
    reference_ = new Grid2D<CDouble>(128, 128);
    Region all{0, 0, 128, 128};
    backproject_ref(scenario_->history, scenario_->grid, all, 0,
                    scenario_->history.num_pulses(), *reference_);
  }
  static void TearDownTestSuite() {
    delete scenario_;
    delete reference_;
    scenario_ = nullptr;
    reference_ = nullptr;
  }

  static Grid2D<CFloat> to_image(const SoaTile& tile) {
    Grid2D<CFloat> img(tile.width(), tile.height());
    Region all{0, 0, tile.width(), tile.height()};
    SoaTile copy = tile;
    copy.accumulate_into(img, all);
    return img;
  }

  static double run_kernel_snr(KernelKind kind, Index block,
                               geometry::LoopOrder order) {
    const auto& s = *scenario_;
    Region all{0, 0, s.grid.width(), s.grid.height()};
    SoaTile tile(all.width, all.height);
    switch (kind) {
      case KernelKind::kBaseline:
        backproject_baseline(s.history, s.grid, all, 0,
                             s.history.num_pulses(), false, order, tile);
        break;
      case KernelKind::kBaselineAllFloat:
        backproject_baseline(s.history, s.grid, all, 0,
                             s.history.num_pulses(), true, order, tile);
        break;
      case KernelKind::kAsrScalar:
        backproject_asr_scalar(s.history, s.grid, all, 0,
                               s.history.num_pulses(), block, block, order,
                               tile);
        break;
      case KernelKind::kAsrSimd:
        backproject_asr_simd(s.history, s.grid, all, 0,
                             s.history.num_pulses(), block, block, order,
                             tile);
        break;
      case KernelKind::kRefDouble:
        ADD_FAILURE() << "not a float kernel";
    }
    const Grid2D<CFloat> img = to_image(tile);
    return snr_db(img, *reference_);
  }

  static SmallScenario* scenario_;
  static Grid2D<CDouble>* reference_;
};

SmallScenario* KernelTest::scenario_ = nullptr;
Grid2D<CDouble>* KernelTest::reference_ = nullptr;

TEST_F(KernelTest, ReferenceImageIsNonTrivial) {
  double energy = 0.0;
  for (const auto& v : reference_->flat()) energy += std::norm(v);
  EXPECT_GT(energy, 0.0);
}

TEST_F(KernelTest, BaselineMatchesReferenceAtEpAccuracy) {
  // The baseline's EP-mode trig targets the paper's ~55 dB operating point.
  const double snr = run_kernel_snr(KernelKind::kBaseline, 64,
                                    geometry::LoopOrder::kXInner);
  EXPECT_GT(snr, 45.0);
  EXPECT_LT(snr, 80.0);
}

TEST_F(KernelTest, AllFloatBaselineCollapsesTowardTwelveDb) {
  // Fig. 8: computing r (and the trig argument reduction) in single
  // precision drops image SNR to ~12 dB.
  const double snr = run_kernel_snr(KernelKind::kBaselineAllFloat, 64,
                                    geometry::LoopOrder::kXInner);
  EXPECT_GT(snr, 0.5);
  EXPECT_LT(snr, 30.0);
}

TEST_F(KernelTest, AsrScalarReachesBaselineAccuracyAt64) {
  const double asr = run_kernel_snr(KernelKind::kAsrScalar, 64,
                                    geometry::LoopOrder::kXInner);
  EXPECT_GT(asr, 45.0);
}

TEST_F(KernelTest, AsrAccuracyDecreasesWithBlockSize) {
  const double snr16 = run_kernel_snr(KernelKind::kAsrScalar, 16,
                                      geometry::LoopOrder::kXInner);
  const double snr64 = run_kernel_snr(KernelKind::kAsrScalar, 64,
                                      geometry::LoopOrder::kXInner);
  const double snr128 = run_kernel_snr(KernelKind::kAsrScalar, 128,
                                       geometry::LoopOrder::kXInner);
  EXPECT_GT(snr16, snr64 - 3.0);   // small blocks at least as good
  EXPECT_GT(snr64, snr128);        // large blocks strictly worse
}

TEST_F(KernelTest, AsrSimdMatchesScalarClosely) {
  if (!asr_simd_available()) GTEST_SKIP() << "no SIMD kernel compiled";
  const auto& s = *scenario_;
  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile scalar_tile(all.width, all.height);
  SoaTile simd_tile(all.width, all.height);
  backproject_asr_scalar(s.history, s.grid, all, 0, s.history.num_pulses(),
                         64, 64, geometry::LoopOrder::kXInner, scalar_tile);
  backproject_asr_simd(s.history, s.grid, all, 0, s.history.num_pulses(),
                       64, 64, geometry::LoopOrder::kXInner, simd_tile);
  // FMA contraction reorders rounding, so equality is to ~1e-5 relative,
  // not bitwise.
  const double parity = snr_db(to_image(simd_tile), to_image(scalar_tile));
  EXPECT_GT(parity, 90.0);
}

TEST_F(KernelTest, AsrSimdAccuracyMatchesReference) {
  if (!asr_simd_available()) GTEST_SKIP() << "no SIMD kernel compiled";
  const double snr = run_kernel_snr(KernelKind::kAsrSimd, 64,
                                    geometry::LoopOrder::kXInner);
  EXPECT_GT(snr, 45.0);
}

TEST_F(KernelTest, LoopOrderDoesNotChangeResult) {
  for (KernelKind kind :
       {KernelKind::kBaseline, KernelKind::kAsrScalar, KernelKind::kAsrSimd}) {
    if (kind == KernelKind::kAsrSimd && !asr_simd_available()) continue;
    const auto& s = *scenario_;
    Region all{0, 0, s.grid.width(), s.grid.height()};
    SoaTile a(all.width, all.height);
    SoaTile b(all.width, all.height);
    auto run = [&](geometry::LoopOrder order, SoaTile& tile) {
      switch (kind) {
        case KernelKind::kBaseline:
          backproject_baseline(s.history, s.grid, all, 0, 16, false, order,
                               tile);
          break;
        case KernelKind::kAsrScalar:
          backproject_asr_scalar(s.history, s.grid, all, 0, 16, 64, 64,
                                 order, tile);
          break;
        default:
          backproject_asr_simd(s.history, s.grid, all, 0, 16, 64, 64, order,
                               tile);
      }
    };
    run(geometry::LoopOrder::kXInner, a);
    run(geometry::LoopOrder::kYInner, b);
    // Same math, different traversal: results agree to float rounding.
    const double parity = snr_db(to_image(a), to_image(b));
    EXPECT_GT(parity, 60.0) << kernel_name(kind);
  }
}

TEST_F(KernelTest, PulseRangesAreAdditive) {
  const auto& s = *scenario_;
  Region all{0, 0, s.grid.width(), s.grid.height()};
  const Index n = s.history.num_pulses();
  SoaTile whole(all.width, all.height);
  backproject_asr_scalar(s.history, s.grid, all, 0, n, 64, 64,
                         geometry::LoopOrder::kXInner, whole);
  SoaTile parts(all.width, all.height);
  backproject_asr_scalar(s.history, s.grid, all, 0, n / 3, 64, 64,
                         geometry::LoopOrder::kXInner, parts);
  backproject_asr_scalar(s.history, s.grid, all, n / 3, n, 64, 64,
                         geometry::LoopOrder::kXInner, parts);
  const double parity = snr_db(to_image(parts), to_image(whole));
  EXPECT_GT(parity, 100.0);
}

TEST_F(KernelTest, DisjointRegionsTileTheImage) {
  const auto& s = *scenario_;
  const Index w = s.grid.width();
  const Index h = s.grid.height();
  Grid2D<CFloat> whole_img(w, h);
  {
    Region all{0, 0, w, h};
    SoaTile t(w, h);
    backproject_asr_scalar(s.history, s.grid, all, 0, 16, 64, 64,
                           geometry::LoopOrder::kXInner, t);
    t.accumulate_into(whole_img, all);
  }
  Grid2D<CFloat> tiled_img(w, h);
  for (Index qy = 0; qy < 2; ++qy) {
    for (Index qx = 0; qx < 2; ++qx) {
      Region quad{qx * w / 2, qy * h / 2, w / 2, h / 2};
      SoaTile t(quad.width, quad.height);
      backproject_asr_scalar(s.history, s.grid, quad, 0, 16, 64, 64,
                             geometry::LoopOrder::kXInner, t);
      t.accumulate_into(tiled_img, quad);
    }
  }
  const double parity = snr_db(tiled_img, whole_img);
  EXPECT_GT(parity, 100.0);
}

TEST_F(KernelTest, EmptyPulseRangeLeavesTileZero) {
  const auto& s = *scenario_;
  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile tile(all.width, all.height);
  backproject_asr_scalar(s.history, s.grid, all, 5, 5, 64, 64,
                         geometry::LoopOrder::kXInner, tile);
  for (Index y = 0; y < tile.height(); ++y) {
    for (Index x = 0; x < tile.width(); ++x) {
      ASSERT_EQ(tile.at(x, y), CFloat{});
    }
  }
}

TEST_F(KernelTest, MismatchedTileShapeThrows) {
  const auto& s = *scenario_;
  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile wrong(8, 8);
  EXPECT_THROW(backproject_asr_scalar(s.history, s.grid, all, 0, 1, 64, 64,
                                      geometry::LoopOrder::kXInner, wrong),
               PreconditionError);
  EXPECT_THROW(backproject_baseline(s.history, s.grid, all, 0, 1, false,
                                    geometry::LoopOrder::kXInner, wrong),
               PreconditionError);
}

TEST_F(KernelTest, PulseRangeOutOfBoundsThrows) {
  const auto& s = *scenario_;
  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile tile(all.width, all.height);
  EXPECT_THROW(
      backproject_asr_scalar(s.history, s.grid, all, 0,
                             s.history.num_pulses() + 1, 64, 64,
                             geometry::LoopOrder::kXInner, tile),
      PreconditionError);
}

/// End-to-end focusing: a single point reflector must reconstruct to a
/// sharp peak at its own pixel with strong contrast over the background.
class FocusTest : public ::testing::TestWithParam<sim::CollectionFidelity> {};

TEST_P(FocusTest, PointTargetFocusesAtItsPixel) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 96;
  cfg.fidelity = GetParam();
  cfg.perturbation_sigma = 0.05;  // robustness: perturbed trajectory
  SmallScenario s = make_scenario(cfg);

  sim::Reflector r;
  const Index px = 40, py = 24;  // off-centre target
  r.position = s.grid.position(px, py);
  s.scene = sim::ReflectorScene({r});
  sim::CollectorParams params;
  params.fidelity = cfg.fidelity;
  Rng rng(3);
  s.history = sim::collect(params, s.grid, s.scene, s.poses, rng);

  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile tile(all.width, all.height);
  backproject_asr_simd(s.history, s.grid, all, 0, s.history.num_pulses(), 64,
                       64, geometry::LoopOrder::kXInner, tile);

  // Peak location.
  Index best_x = 0, best_y = 0;
  double best = 0.0;
  double total = 0.0;
  for (Index y = 0; y < all.height; ++y) {
    for (Index x = 0; x < all.width; ++x) {
      const double mag = std::abs(std::complex<double>(
          tile.at(x, y).real(), tile.at(x, y).imag()));
      total += mag;
      if (mag > best) {
        best = mag;
        best_x = x;
        best_y = y;
      }
    }
  }
  EXPECT_LE(std::abs(best_x - px), 1);
  EXPECT_LE(std::abs(best_y - py), 1);
  // Contrast: the peak should dominate the mean background strongly.
  const double mean = total / static_cast<double>(all.pixels());
  EXPECT_GT(best / mean, 30.0);
}

INSTANTIATE_TEST_SUITE_P(Fidelities, FocusTest,
                         ::testing::Values(sim::CollectionFidelity::kIdealResponse,
                                           sim::CollectionFidelity::kFullWaveform));

/// Property sweep: kernel correctness must hold across look directions,
/// standoffs, and altitudes — not just the calibrated default geometry.
struct GeometryCase {
  double azimuth_rad;
  double standoff_m;
  double altitude_m;
};

class KernelGeometrySweep : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(KernelGeometrySweep, AllKernelsTrackReference) {
  const GeometryCase g = GetParam();
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 24;
  cfg.fidelity = sim::CollectionFidelity::kRandom;
  cfg.start_angle_rad = g.azimuth_rad;
  cfg.orbit_radius_m = g.standoff_m;
  cfg.orbit_altitude_m = g.altitude_m;
  cfg.seed = 1000 + static_cast<std::uint64_t>(g.azimuth_rad * 100.0);
  const SmallScenario s = make_scenario(cfg);

  const Region all{0, 0, s.grid.width(), s.grid.height()};
  Grid2D<CDouble> reference(all.width, all.height);
  backproject_ref(s.history, s.grid, all, 0, s.history.num_pulses(),
                  reference);

  auto run = [&](KernelKind kind, geometry::LoopOrder order) {
    SoaTile tile(all.width, all.height);
    switch (kind) {
      case KernelKind::kBaseline:
        backproject_baseline(s.history, s.grid, all, 0,
                             s.history.num_pulses(), false, order, tile);
        break;
      case KernelKind::kAsrScalar:
        backproject_asr_scalar(s.history, s.grid, all, 0,
                               s.history.num_pulses(), 64, 64, order, tile);
        break;
      default:
        backproject_asr_simd(s.history, s.grid, all, 0,
                             s.history.num_pulses(), 64, 64, order, tile);
    }
    Grid2D<CFloat> img(all.width, all.height);
    tile.accumulate_into(img, all);
    return snr_db(img, reference);
  };

  for (const auto order :
       {geometry::LoopOrder::kXInner, geometry::LoopOrder::kYInner}) {
    EXPECT_GT(run(KernelKind::kBaseline, order), 45.0)
        << "baseline az=" << g.azimuth_rad;
    EXPECT_GT(run(KernelKind::kAsrScalar, order), 45.0)
        << "asr-scalar az=" << g.azimuth_rad;
    if (asr_simd_available()) {
      EXPECT_GT(run(KernelKind::kAsrSimd, order), 45.0)
          << "asr-simd az=" << g.azimuth_rad;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KernelGeometrySweep,
    ::testing::Values(GeometryCase{0.0, 40000, 8000},
                      GeometryCase{0.7854, 40000, 8000},   // 45 deg
                      GeometryCase{1.5708, 40000, 8000},   // 90 deg: look ~ y
                      GeometryCase{2.3562, 40000, 8000},   // 135 deg
                      GeometryCase{3.1416, 40000, 8000},   // 180 deg
                      GeometryCase{4.2, 40000, 8000},      // third quadrant
                      GeometryCase{5.5, 40000, 8000},      // fourth quadrant
                      GeometryCase{0.3, 60000, 8000},      // longer standoff
                      GeometryCase{0.3, 30000, 12000},     // steeper grazing
                      GeometryCase{1.0, 50000, 3000}),     // shallow grazing
    [](const ::testing::TestParamInfo<GeometryCase>& param_info) {
      return "az" + std::to_string(static_cast<int>(
                        param_info.param.azimuth_rad * 180.0 / 3.14159265)) +
             "_r" + std::to_string(static_cast<int>(param_info.param.standoff_m / 1000)) +
             "k_h" + std::to_string(static_cast<int>(param_info.param.altitude_m / 1000)) +
             "k";
    });

// A per-pulse loop order (nullopt) is the per-run split done inside one
// call: one call over pulses that cross several wavefront-order switches
// forms the bytes of one fixed-order call per run.
TEST(KernelLoopOrder, PerPulseOrderMatchesPerRunSplit) {
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 48;
  const SmallScenario s = make_scenario(cfg);
  const sim::PhaseHistory history =
      testing::alternate_loop_orders(s.history, s.grid.centre());
  const Region all{0, 0, s.grid.width(), s.grid.height()};

  struct Run {
    Index begin;
    Index end;
    geometry::LoopOrder order;
  };
  std::vector<Run> runs;
  for (Index p = 0; p < history.num_pulses(); ++p) {
    const geometry::LoopOrder o =
        geometry::choose_loop_order(history.meta(p).position, s.grid.centre());
    if (runs.empty() || runs.back().order != o) {
      runs.push_back({p, p + 1, o});
    } else {
      runs.back().end = p + 1;
    }
  }
  ASSERT_GE(runs.size(), 4u);  // at least 3 switches

  for (KernelKind kind :
       {KernelKind::kBaseline, KernelKind::kBaselineAllFloat,
        KernelKind::kAsrScalar, KernelKind::kAsrSimd}) {
    if (kind == KernelKind::kAsrSimd && !asr_simd_available()) continue;
    auto run = [&](Index begin, Index end,
                   std::optional<geometry::LoopOrder> order, SoaTile& tile) {
      switch (kind) {
        case KernelKind::kBaseline:
        case KernelKind::kBaselineAllFloat:
          backproject_baseline(history, s.grid, all, begin, end,
                               kind == KernelKind::kBaselineAllFloat, order,
                               tile);
          break;
        case KernelKind::kAsrScalar:
          backproject_asr_scalar(history, s.grid, all, begin, end, 32, 32,
                                 order, tile);
          break;
        default:
          backproject_asr_simd(history, s.grid, all, begin, end, 32, 32,
                               order, tile);
      }
    };
    SoaTile chunk(all.width, all.height);
    run(0, history.num_pulses(), std::nullopt, chunk);
    SoaTile split(all.width, all.height);
    for (const Run& r : runs) run(r.begin, r.end, r.order, split);
    for (Index y = 0; y < all.height; ++y) {
      const auto bytes = static_cast<std::size_t>(all.width) * sizeof(float);
      ASSERT_EQ(std::memcmp(chunk.row_re(y), split.row_re(y), bytes), 0)
          << kernel_name(kind) << ", row " << y;
      ASSERT_EQ(std::memcmp(chunk.row_im(y), split.row_im(y), bytes), 0)
          << kernel_name(kind) << ", row " << y;
    }
  }
}

TEST(KernelName, AllNamesDistinct) {
  EXPECT_STREQ(kernel_name(KernelKind::kRefDouble), "ref-double");
  EXPECT_STREQ(kernel_name(KernelKind::kBaseline), "baseline");
  EXPECT_STREQ(kernel_name(KernelKind::kAsrScalar), "asr-scalar");
  EXPECT_STREQ(kernel_name(KernelKind::kAsrSimd), "asr-simd");
}

TEST(Simd, WidthConsistentWithAvailability) {
  if (asr_simd_available()) {
    EXPECT_GT(asr_simd_width(), 1);
  } else {
    EXPECT_EQ(asr_simd_width(), 1);
  }
}

TEST(Simd, AvailabilityMatchesCompiledWidth) {
  // A width-1 build (no vector ISA at compile time) must report the SIMD
  // kernel as unavailable, so selection falls back instead of running a
  // degenerate 1-lane "vector" path.
  EXPECT_EQ(asr_simd_available(), asr_simd_width() > 1);
}

TEST(Simd, ResolveKernelFallsBackToScalarWhenUnavailable) {
  const KernelKind resolved = resolve_kernel(KernelKind::kAsrSimd);
  if (asr_simd_available()) {
    EXPECT_EQ(resolved, KernelKind::kAsrSimd);
  } else {
    EXPECT_EQ(resolved, KernelKind::kAsrScalar);
  }
  // Every other kind resolves to itself regardless of ISA support.
  for (KernelKind kind :
       {KernelKind::kBaseline, KernelKind::kBaselineAllFloat,
        KernelKind::kAsrScalar}) {
    EXPECT_EQ(resolve_kernel(kind), kind) << kernel_name(kind);
  }
}

}  // namespace
}  // namespace sarbp::bp
