// Runtime ISA dispatch and kernel-variant parity for the ASR SIMD kernel:
// every (ISA, variant) pair runs the *same* formation plan through the
// backend sweep, so differences can only come from the inner loop.
//
// Parity contract (kernel.h):
//  - kAuto (window loads), kGather and kShuffleTranspose: bit-identical
//    (same arithmetic, same order; only the load mechanism differs).
//  - scalar vs vector, FMA vs no-FMA, AVX2 vs AVX-512: different rounding
//    and/or reduction widths, so parity is at SNR level (> 70 dB).
//  - forcing an unavailable ISA fails with PreconditionError, never SIGILL.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asr/block_plan.h"
#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/check.h"
#include "common/grid2d.h"
#include "common/rng.h"
#include "common/snr.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "test_helpers.h"

namespace sarbp {
namespace {

constexpr Index kImage = 96;
constexpr Index kPulses = 24;
constexpr Index kBlock = 32;

class KernelVariantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testing::ScenarioConfig cfg;
    cfg.image = kImage;
    cfg.pulses = kPulses;
    scenario_ = new testing::SmallScenario(testing::make_scenario(cfg));
    region_ = Region{0, 0, kImage, kImage};
    plan_ = service::build_formation_plan(scenario_->grid, region_, kBlock,
                                          kBlock, scenario_->history);
  }

  static void TearDownTestSuite() {
    plan_.reset();
    delete scenario_;
    scenario_ = nullptr;
  }

  static exec::PlanView plan_view() {
    exec::PlanView view;
    view.blocks = plan_->blocks.data();
    view.num_blocks = static_cast<Index>(plan_->blocks.size());
    view.pulse_order = plan_->pulse_order.data();
    view.num_pulses = plan_->num_pulses();
    view.tables = plan_->tables.data();
    view.region_x0 = region_.x0;
    view.region_y0 = region_.y0;
    return view;
  }

  /// Sweeps the whole plan through one backend — the routed service path.
  static bp::SoaTile run_backend(const exec::BackendSpec& spec) {
    const auto backend = exec::make_backend(spec, 0.5, nullptr);
    const exec::PlanView view = plan_view();
    bp::SoaTile tile(region_.width, region_.height);
    for (Index b = 0; b < view.num_blocks; ++b) {
      backend->sweep_block(view, scenario_->history, b, 0, kPulses, tile);
    }
    return tile;
  }

  static bp::SoaTile run_simd_plan(bp::SimdIsa isa, bp::KernelVariant variant) {
    exec::BackendSpec spec;
    spec.kind = exec::BackendSpec::Kind::kHostSimd;
    spec.isa = isa;
    spec.variant = variant;
    return run_backend(spec);
  }

  static bp::SoaTile run_scalar_plan() {
    exec::BackendSpec spec;
    spec.kind = exec::BackendSpec::Kind::kHostScalar;
    return run_backend(spec);
  }

  static Grid2D<CFloat> to_grid(const bp::SoaTile& tile) {
    Grid2D<CFloat> out(tile.width(), tile.height());
    for (Index y = 0; y < tile.height(); ++y) {
      for (Index x = 0; x < tile.width(); ++x) {
        out.at(x, y) = CFloat{tile.row_re(y)[x], tile.row_im(y)[x]};
      }
    }
    return out;
  }

  static bool bit_identical(const bp::SoaTile& a, const bp::SoaTile& b) {
    for (Index y = 0; y < a.height(); ++y) {
      if (std::memcmp(a.row_re(y), b.row_re(y),
                      sizeof(float) * static_cast<std::size_t>(a.width())) !=
              0 ||
          std::memcmp(a.row_im(y), b.row_im(y),
                      sizeof(float) * static_cast<std::size_t>(a.width())) !=
              0) {
        return false;
      }
    }
    return true;
  }

  /// A history that drives every branch of kAuto's sample load: random
  /// samples in 0.2 m bins (2.5 bins per 0.5 m pixel), recorded positions
  /// 300 m out on a full circle about the grid centre. At that range each
  /// pulse's look angle varies by about 10 degrees across the image, so the
  /// bin step per pixel along either axis takes every value between about
  /// -2.4 and 2.4. Bin 0 lies `swath_start_m` from the centre's range.
  static sim::PhaseHistory load_path_history(Index samples,
                                             double swath_start_m) {
    constexpr Index kCircle = 48;
    sim::PhaseHistory h(kCircle, samples, 0.2, 64.0);
    const geometry::Vec3 c = scenario_->grid.centre();
    Rng rng(7);
    for (Index p = 0; p < kCircle; ++p) {
      const double a = 0.1 + 2.0 * std::numbers::pi *
                                 static_cast<double>(p) /
                                 static_cast<double>(kCircle);
      sim::PulseMeta& meta = h.meta(p);
      meta.position = {c.x + 300.0 * std::cos(a), c.y + 300.0 * std::sin(a),
                       100.0};
      meta.start_range_m = geometry::distance(meta.position, c) +
                           swath_start_m;
      for (CFloat& v : h.pulse(p)) {
        v = CFloat{static_cast<float>(rng.normal()),
                   static_cast<float>(rng.normal())};
      }
    }
    return h;
  }

  /// Sweeps every block over all of `h` through the one ASR sweep core,
  /// tables built per pulse (nullopt: each pulse's wavefront order).
  static bp::SoaTile sweep_history(const sim::PhaseHistory& h,
                                   std::optional<geometry::LoopOrder> order,
                                   const bp::AsrKernel& kernel) {
    bp::SoaTile tile(kImage, kImage);
    const bp::PulseRange pulses[] = {{&h, 0, h.num_pulses()}};
    for (const auto& block :
         asr::plan_blocks(0, 0, kImage, kImage, kBlock, kBlock)) {
      bp::sweep_asr_block(block, 0, 0, scenario_->grid, pulses, order, kernel,
                          tile);
    }
    return tile;
  }

  /// Pixels with a nonzero value: how much of the image a swath reached.
  static Index covered_pixels(const bp::SoaTile& tile) {
    Index n = 0;
    for (Index y = 0; y < tile.height(); ++y) {
      for (Index x = 0; x < tile.width(); ++x) {
        if (tile.row_re(y)[x] != 0.0f || tile.row_im(y)[x] != 0.0f) ++n;
      }
    }
    return n;
  }

  static testing::SmallScenario* scenario_;
  static Region region_;
  static std::shared_ptr<const service::FormationPlan> plan_;
};

testing::SmallScenario* KernelVariantTest::scenario_ = nullptr;
Region KernelVariantTest::region_;
std::shared_ptr<const service::FormationPlan> KernelVariantTest::plan_;

TEST_F(KernelVariantTest, AvailabilityInvariants) {
  EXPECT_EQ(bp::asr_simd_available(), bp::asr_simd_width() > 1);
  EXPECT_TRUE(bp::asr_isa_available(bp::SimdIsa::kScalar));
  EXPECT_TRUE(bp::asr_isa_available(bp::SimdIsa::kAuto));
  // kAuto resolves to the widest usable ISA, consistent with the width.
  const bp::SimdIsa resolved = bp::asr_resolve_isa(bp::SimdIsa::kAuto);
  switch (resolved) {
    case bp::SimdIsa::kAvx512: EXPECT_EQ(bp::asr_simd_width(), 16); break;
    case bp::SimdIsa::kAvx2: EXPECT_EQ(bp::asr_simd_width(), 8); break;
    case bp::SimdIsa::kScalar: EXPECT_EQ(bp::asr_simd_width(), 1); break;
    case bp::SimdIsa::kAuto: FAIL() << "kAuto must resolve to a concrete ISA";
  }
  // An AVX-512 host can always also run the narrower AVX2 TU.
  if (resolved == bp::SimdIsa::kAvx512) {
    EXPECT_TRUE(bp::asr_isa_available(bp::SimdIsa::kAvx2));
  }
}

TEST_F(KernelVariantTest, ForcingUnavailableIsaFailsCleanly) {
  // On hosts (or builds) missing an ISA the resolve must throw a clear
  // error — never dispatch into illegal instructions.
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (bp::asr_isa_available(isa)) continue;
    EXPECT_THROW((void)bp::asr_resolve_isa(isa), PreconditionError);
  }
  SUCCEED();
}

TEST_F(KernelVariantTest, GatherVsShuffleBitIdentical) {
  // Same arithmetic in the same order; only the sample-load mechanism
  // differs, so kShuffleTranspose and kAuto's window loads must give
  // kGather's bytes. Checked per usable vector ISA on the scenario's plan
  // (the routed service path) and on load_path_history swept in each
  // pulse's wavefront order (most vectors fit the window) and in both fixed
  // orders, so every pulse also runs its opposite order (spans too wide:
  // gathers). Its swaths: one covering the image, and two starting 5 m
  // beyond the centre's range, whose edges cut through the image (masked
  // lanes: gathers) and leave its middle unreached; the second has 7
  // samples (below the AVX-512 window, at the edge of the AVX2 one).
  const sim::PhaseHistory full = load_path_history(400, -40.0);
  const sim::PhaseHistory edges = load_path_history(75, 5.0);
  const sim::PhaseHistory narrow = load_path_history(7, 5.0);
  const std::pair<const char*, const sim::PhaseHistory*> swaths[] = {
      {"full swath", &full}, {"swath edges", &edges}, {"7 samples", &narrow}};
  const std::pair<const char*, std::optional<geometry::LoopOrder>> orders[] =
      {{"wavefront", std::nullopt},
       {"x_inner", geometry::LoopOrder::kXInner},
       {"y_inner", geometry::LoopOrder::kYInner}};
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    SCOPED_TRACE(bp::simd_isa_name(isa));
    const bp::SoaTile gather =
        run_simd_plan(isa, bp::KernelVariant::kGather);
    EXPECT_TRUE(bit_identical(
        gather, run_simd_plan(isa, bp::KernelVariant::kShuffleTranspose)))
        << "plan: shuffle-transpose vs gather";
    EXPECT_TRUE(
        bit_identical(gather, run_simd_plan(isa, bp::KernelVariant::kAuto)))
        << "plan: auto vs gather";
    for (const auto& [swath, history] : swaths) {
      for (const auto& [order_name, order] : orders) {
        SCOPED_TRACE(std::string(swath) + ", " + order_name);
        const bp::SoaTile g = sweep_history(
            *history, order, {isa, bp::KernelVariant::kGather});
        const Index covered = covered_pixels(g);
        EXPECT_GT(covered, 0);
        EXPECT_EQ(covered == kImage * kImage, history == &full);
        EXPECT_TRUE(bit_identical(
            g, sweep_history(*history, order,
                             {isa, bp::KernelVariant::kShuffleTranspose})))
            << "shuffle-transpose vs gather";
        EXPECT_TRUE(bit_identical(
            g, sweep_history(*history, order,
                             {isa, bp::KernelVariant::kAuto})))
            << "auto vs gather";
      }
    }
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, VectorIsasMatchScalarAtSnrLevel) {
  // Vector reduction order differs from scalar (lane-parallel recurrence,
  // Gamma^W stepping), so parity is at SNR level, not bitwise.
  const Grid2D<CFloat> scalar = to_grid(run_scalar_plan());
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    for (const bp::KernelVariant variant :
         {bp::KernelVariant::kGather, bp::KernelVariant::kShuffleTranspose,
          bp::KernelVariant::kGatherNoFma}) {
      const Grid2D<CFloat> vec = to_grid(run_simd_plan(isa, variant));
      EXPECT_GT(snr_db(vec, scalar), 70.0)
          << bp::simd_isa_name(isa) << "/"
          << bp::kernel_variant_name(variant);
      checked = true;
    }
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, NoFmaMatchesGatherAtSnrLevel) {
  // Splitting each fused multiply-add into mul+add changes rounding only:
  // the images must agree far above the ASR approximation floor.
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    const Grid2D<CFloat> fma =
        to_grid(run_simd_plan(isa, bp::KernelVariant::kGather));
    const Grid2D<CFloat> nofma =
        to_grid(run_simd_plan(isa, bp::KernelVariant::kGatherNoFma));
    EXPECT_GT(snr_db(nofma, fma), 80.0) << bp::simd_isa_name(isa);
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, ForcedAvx2OnWiderHostMatchesAuto) {
  // The narrow-TU-on-wide-host case: an AVX-512 machine forced down to the
  // 8-lane AVX2 kernel still produces an equivalent image. The reduction
  // widths differ (8 vs 16 lanes), so parity is SNR-level.
  if (bp::asr_resolve_isa(bp::SimdIsa::kAuto) != bp::SimdIsa::kAvx512) {
    GTEST_SKIP() << "host is not AVX-512";
  }
  const Grid2D<CFloat> wide =
      to_grid(run_simd_plan(bp::SimdIsa::kAvx512, bp::KernelVariant::kGather));
  const Grid2D<CFloat> narrow =
      to_grid(run_simd_plan(bp::SimdIsa::kAvx2, bp::KernelVariant::kGather));
  EXPECT_GT(snr_db(narrow, wide), 70.0);
}

TEST_F(KernelVariantTest, StreamingKernelHonoursForcedIsa) {
  // The streaming (non-plan) entry point takes the same ISA override; a
  // forced narrow ISA must agree with the scalar streaming kernel.
  bp::SoaTile scalar(kImage, kImage);
  bp::backproject_asr_scalar(scenario_->history, scenario_->grid, region_, 0,
                             kPulses, kBlock, kBlock,
                             geometry::LoopOrder::kXInner, scalar);
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    bp::SoaTile simd(kImage, kImage);
    bp::backproject_asr_simd(scenario_->history, scenario_->grid, region_, 0,
                             kPulses, kBlock, kBlock,
                             geometry::LoopOrder::kXInner, simd, isa);
    EXPECT_GT(snr_db(to_grid(simd), to_grid(scalar)), 70.0)
        << bp::simd_isa_name(isa);
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

}  // namespace
}  // namespace sarbp
