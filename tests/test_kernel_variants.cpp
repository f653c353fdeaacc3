// Runtime ISA dispatch and kernel-variant parity for the ASR SIMD kernel:
// every (ISA, variant) pair runs the *same* formation plan through the
// backend sweep, so differences can only come from the inner loop.
//
// Parity contract (kernel.h):
//  - kAuto (one-bin broadcasts, window loads), kGather and
//    kShuffleTranspose on every ISA, and the portable scalar sweep:
//    bit-identical (one column chain per pixel, the same pinned arithmetic
//    in the same order; only the load mechanism, the lane count and the
//    strip width differ).
//  - kGatherNoFma: different rounding, so parity is at SNR level (> 70 dB).
//  - forcing an unavailable ISA fails with PreconditionError, never SIGILL.
//  - the vector table build (one table per f64 lane) writes the scalar
//    build's bytes on every ISA.
//  - every pixel's column chain, in every ISA and variant and in the
//    scalar sweep, matches a reference written here byte for byte: fused in
//    the fused variants and the scalar sweep, mul then sub/add in
//    kGatherNoFma.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "asr/block_plan.h"
#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/aligned.h"
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

  /// Sweeps the whole plan through one backend — the routed service path.
  static bp::SoaTile run_backend(const exec::BackendSpec& spec) {
    const auto backend = exec::make_backend(spec, 0.5, nullptr);
    bp::SoaTile tile(region_.width, region_.height);
    for (std::size_t b = 0; b < plan_->blocks.size(); ++b) {
      bp::sweep_asr_block(plan_->blocks[b], region_.x0, region_.y0,
                          plan_->block_tables(b),
                          bp::PulseRange{&scenario_->history, 0, kPulses},
                          backend->kernel(), tile);
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
  /// tables built on the fly (nullopt: each pulse's wavefront order).
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

  /// The row lengths whose last vector is partial on either ISA (16 and 8
  /// lanes): one-pixel rows, rows shorter than a vector, and rows one
  /// vector plus a tail long. OffloadRuntime's row bands cut blocks of
  /// any height, 37 and 46 rows among them.
  static constexpr Index kRowLengths[] = {1, 5, 15, 17, 37, 46};

  /// The scenario's pulses swept under `order` over a region centred in
  /// the image whose rows are `len` pixels long: blocks of len x 8 under
  /// x_inner, 8 x len under y_inner.
  static bp::SoaTile sweep_rows(Index len, geometry::LoopOrder order,
                                const bp::AsrKernel& kernel) {
    const bool x_inner = order == geometry::LoopOrder::kXInner;
    const Index w = x_inner ? len : 48;
    const Index h = x_inner ? 48 : len;
    const Index x0 = (kImage - w) / 2;
    const Index y0 = (kImage - h) / 2;
    bp::SoaTile tile(w, h);
    const bp::PulseRange pulses[] = {{&scenario_->history, 0, kPulses}};
    for (const auto& block : asr::plan_blocks(x0, y0, w, h, x_inner ? len : 8,
                                              x_inner ? 8 : len)) {
      bp::sweep_asr_block(block, x0, y0, scenario_->grid, pulses, order,
                          kernel, tile);
    }
    return tile;
  }

  /// One case's tables, built once as a plan holds them: every block of a
  /// bw x bh tiling of `region` for every pulse of `h` under `order`
  /// (nullopt: each pulse's wavefront order), block b's for pulse p at
  /// tables[b * pulses + p], all viewing one buffer.
  struct CaseTables {
    std::vector<asr::BlockSpec> blocks;
    std::vector<geometry::LoopOrder> orders;  ///< [pulses]
    AlignedVector<float> storage;
    std::vector<asr::BlockTables> tables;
  };

  static CaseTables build_case_tables(const sim::PhaseHistory& h,
                                      std::optional<geometry::LoopOrder> order,
                                      const Region& region, Index bw,
                                      Index bh) {
    CaseTables c;
    c.blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                region.height, bw, bh);
    const auto pulses = static_cast<std::size_t>(h.num_pulses());
    for (Index p = 0; p < h.num_pulses(); ++p) {
      c.orders.push_back(order ? *order
                               : geometry::choose_loop_order(
                                     h.meta(p).position,
                                     scenario_->grid.centre()));
    }
    const std::size_t stride =
        std::max(asr::BlockTables::footprint_floats(bw, bh),
                 asr::BlockTables::footprint_floats(bh, bw));
    c.storage.resize(stride * c.blocks.size() * pulses);
    for (std::size_t b = 0; b < c.blocks.size(); ++b) {
      const asr::BlockSpec& block = c.blocks[b];
      std::vector<bp::TableSlot> slots;
      for (std::size_t p = 0; p < pulses; ++p) {
        const bool x_inner = c.orders[p] == geometry::LoopOrder::kXInner;
        c.tables.emplace_back(
            c.storage.data() + c.tables.size() * stride,
            x_inner ? block.width : block.height,
            x_inner ? block.height : block.width);
      }
      for (std::size_t p = 0; p < pulses; ++p) {
        slots.push_back({&h, static_cast<Index>(p), c.orders[p],
                         &c.tables[b * pulses + p]});
      }
      bp::build_asr_tables(scenario_->grid, block, slots);
    }
    return c;
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
    // Rows whose last vector is a masked step.
    for (const Index len : kRowLengths) {
      for (const auto order :
           {geometry::LoopOrder::kXInner, geometry::LoopOrder::kYInner}) {
        SCOPED_TRACE("row length " + std::to_string(len) +
                     (order == geometry::LoopOrder::kXInner ? ", x_inner"
                                                            : ", y_inner"));
        const bp::SoaTile g =
            sweep_rows(len, order, {isa, bp::KernelVariant::kGather});
        EXPECT_TRUE(bit_identical(
            g, sweep_rows(len, order,
                          {isa, bp::KernelVariant::kShuffleTranspose})))
            << "shuffle-transpose vs gather";
        EXPECT_TRUE(bit_identical(
            g, sweep_rows(len, order, {isa, bp::KernelVariant::kAuto})))
            << "auto vs gather";
      }
    }
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, VectorIsasMatchScalarAtSnrLevel) {
  // kGatherNoFma splits every fused multiply-add, so it rounds differently
  // from the scalar sweep: parity is at SNR level, not bitwise. The fused
  // variants give the scalar bytes (VectorIsasMatchScalarBytes).
  const Grid2D<CFloat> scalar = to_grid(run_scalar_plan());
  constexpr auto kNoFma = bp::KernelVariant::kGatherNoFma;
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    const Grid2D<CFloat> vec = to_grid(run_simd_plan(isa, kNoFma));
    EXPECT_GT(snr_db(vec, scalar), 70.0) << bp::simd_isa_name(isa);
    // Rows whose last vector is a masked step.
    for (const Index len : kRowLengths) {
      for (const auto order :
           {geometry::LoopOrder::kXInner, geometry::LoopOrder::kYInner}) {
        EXPECT_GT(snr_db(to_grid(sweep_rows(len, order, {isa, kNoFma})),
                         to_grid(sweep_rows(len, order, bp::AsrKernel{}))),
                  70.0)
            << bp::simd_isa_name(isa) << ", row length " << len
            << (order == geometry::LoopOrder::kXInner ? ", x_inner"
                                                      : ", y_inner");
      }
    }
    checked = true;
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
  // 8-lane AVX2 kernel steps the same column chains in the same forms, so
  // it gives the 16-lane kernel's bytes.
  if (bp::asr_resolve_isa(bp::SimdIsa::kAuto) != bp::SimdIsa::kAvx512) {
    GTEST_SKIP() << "host is not AVX-512";
  }
  for (const bp::KernelVariant variant :
       {bp::KernelVariant::kAuto, bp::KernelVariant::kGather}) {
    EXPECT_TRUE(bit_identical(run_simd_plan(bp::SimdIsa::kAvx2, variant),
                              run_simd_plan(bp::SimdIsa::kAvx512, variant)))
        << bp::kernel_variant_name(variant);
  }
}

TEST_F(KernelVariantTest, StreamingKernelHonoursForcedIsa) {
  // The streaming (non-plan) entry point takes the same ISA override; a
  // forced narrow ISA must give the scalar streaming kernel's bytes.
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
    EXPECT_TRUE(bit_identical(simd, scalar)) << bp::simd_isa_name(isa);
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

/// a * b rounded to float. The volatile store keeps the compiler from
/// fusing the product into a later add (GCC contracts float arithmetic by
/// default), so the reference rounds as written in every build.
float product(float a, float b) {
  volatile float p = a * b;
  return p;
}

/// a * b in the row kernels' pinned form: re = fmsub(a.re, b.re,
/// a.im * b.im), im = fmadd(a.re, b.im, a.im * b.re).
CFloat pinned_step(CFloat a, CFloat b) {
  return {std::fma(a.real(), b.real(), -product(a.imag(), b.imag())),
          std::fma(a.real(), b.imag(), product(a.imag(), b.real()))};
}

/// a * b as kGatherNoFma steps it: each product rounded, then the sub or
/// add.
CFloat unfused_step(CFloat a, CFloat b) {
  return {product(a.real(), b.real()) - product(a.imag(), b.imag()),
          product(a.real(), b.imag()) + product(a.imag(), b.real())};
}

TEST_F(KernelVariantTest, ColumnChainsKeepTheirRounding) {
  // Tables under which every output pixel is the kernel's arg = chi(l, m) *
  // Psi[m]: bin 0.5 on samples of 1 + 0i (an interpolated 1), and random
  // unit Phi'[l], Omega[l] and Psi[m]. Every kernel starts pixel l's chain
  // at Phi'[l] and steps it by Omega[l] from row to row, whatever its lane
  // count and strip width: pinned in the fused variants and the scalar
  // sweep, mul then sub/add in kGatherNoFma (its TU is compiled with
  // -ffp-contract=off). The reference is written here, so a step off by
  // one ulp fails, which the cross-kernel byte tests cannot see. Columns
  // run past 64 rows, so the chains are long; row lengths end inside,
  // at and past a vector (8 or 16 lanes) and a strip (16 or 64 pixels).
  sim::PhaseHistory ones(1, 16, 1.0, 1.0);
  for (CFloat& v : ones.pulse(0)) v = CFloat{1.0f, 0.0f};
  const Index lens_m[] = {1, 2, 17, 65, 130};
  const Index lens_l[] = {1, 5, 8, 9, 16, 17, 24, 33, 63, 64, 65, 80, 129};
  std::vector<bp::AsrKernel> kernels = {bp::AsrKernel{}};
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    for (const bp::KernelVariant variant :
         {bp::KernelVariant::kAuto, bp::KernelVariant::kGather,
          bp::KernelVariant::kShuffleTranspose,
          bp::KernelVariant::kGatherNoFma}) {
      kernels.push_back({isa, variant});
    }
  }
  Rng rng(2012);
  const auto unit = [&] {
    const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
    return std::pair{static_cast<float>(std::cos(a)),
                     static_cast<float>(std::sin(a))};
  };
  for (const bp::AsrKernel& kernel : kernels) {
    const bool scalar = kernel.isa == bp::SimdIsa::kScalar;
    const std::string name =
        scalar ? std::string("scalar")
               : std::string(bp::simd_isa_name(kernel.isa)) + "/" +
                     bp::kernel_variant_name(kernel.variant);
    const auto step =
        !scalar && kernel.variant == bp::KernelVariant::kGatherNoFma
            ? unfused_step
            : pinned_step;
    for (const auto order :
         {geometry::LoopOrder::kXInner, geometry::LoopOrder::kYInner}) {
      const bool x_inner = order == geometry::LoopOrder::kXInner;
      for (const Index len_m : lens_m) {
        for (const Index len_l : lens_l) {
          SCOPED_TRACE(name + (x_inner ? ", x_inner, " : ", y_inner, ") +
                       std::to_string(len_l) + " x " + std::to_string(len_m));
          testing::OwnedTables owned(len_l, len_m);
          asr::BlockTables& tables = owned.view;
          for (Index l = 0; l < len_l; ++l) {
            const auto i = static_cast<std::size_t>(l);
            tables.bin_a[i] = 0.5f;
            std::tie(tables.phi_re[i], tables.phi_im[i]) = unit();
            std::tie(tables.omega_re[i], tables.omega_im[i]) = unit();
          }
          for (Index m = 0; m < len_m; ++m) {
            const auto i = static_cast<std::size_t>(m);
            tables.bin_b[i] = 0.0f;
            tables.bin_c[i] = 0.0f;
            std::tie(tables.psi_re[i], tables.psi_im[i]) = unit();
          }
          const asr::BlockSpec block{0, 0, x_inner ? len_l : len_m,
                                     x_inner ? len_m : len_l};
          bp::SoaTile tile(block.width, block.height);
          bp::sweep_asr_block(block, 0, 0, bp::PlanTables{&tables, &order},
                              bp::PulseRange{&ones, 0, 1}, kernel, tile);
          for (Index l = 0; l < len_l; ++l) {
            const auto i_l = static_cast<std::size_t>(l);
            const CFloat omega{tables.omega_re[i_l], tables.omega_im[i_l]};
            CFloat chi{tables.phi_re[i_l], tables.phi_im[i_l]};
            for (Index m = 0; m < len_m; ++m) {
              const auto i_m = static_cast<std::size_t>(m);
              const CFloat want =
                  step(chi, CFloat{tables.psi_re[i_m], tables.psi_im[i_m]});
              chi = step(chi, omega);
              const Index x = x_inner ? l : m;
              const Index y = x_inner ? m : l;
              const float got[] = {tile.row_re(y)[x], tile.row_im(y)[x]};
              const float expected[] = {want.real(), want.imag()};
              ASSERT_EQ(std::memcmp(got, expected, sizeof(got)), 0)
                  << "pixel l = " << l << ", m = " << m << ": got (" << got[0]
                  << ", " << got[1] << "), want (" << expected[0] << ", "
                  << expected[1] << ")";
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelVariantTest, VectorIsasMatchScalarBytes) {
  // Every ISA steps the scalar sweep's column chains in its pinned forms,
  // accumulates y_inner runs through the same workspace, and adds
  // nothing where a bin fails the range check, so kAuto, kGather and
  // kShuffleTranspose must give AsrKernel{}'s bytes on every ISA. On-the-fly
  // cases: the scenario under fixed x_inner, fixed y_inner and each pulse's
  // wavefront order; a copy whose order alternates every 8 pulses; and
  // load_path_history's full circle (strong cross terms, so Omega and the
  // bin's l * C term round) and swath edges (lanes out of range, pixels
  // never reached). Each case's reference is the scalar sweep building its
  // own tables; the vector kernels replay the case's tables, built once
  // (both table sources give the same bytes:
  // AsrSweepCore.TableSourceAndChunkingKeepBits). A plan's tables: replayed
  // from pulse 0 and from mid-plan, as a pulse-scatter part replays. Every
  // tile starts at -0, so a lane that adds +0 where the scalar sweep adds
  // nothing shows. The blocks include thin ones, partial edge blocks and
  // rows W - 1, W and W + 1 wide for both lane counts; the row lengths
  // reach past a strip on AVX2 (16 pixels) and a 64-pixel block fills an
  // AVX-512 one.
  const sim::PhaseHistory alternating = testing::alternate_loop_orders(
      scenario_->history, scenario_->grid.centre());
  const sim::PhaseHistory circle = load_path_history(400, -40.0);
  const sim::PhaseHistory edges = load_path_history(75, 5.0);
  const auto y_inner = geometry::LoopOrder::kYInner;
  const std::tuple<const char*, const sim::PhaseHistory*,
                   std::optional<geometry::LoopOrder>>
      fly_cases[] = {
          {"x_inner", &scenario_->history, geometry::LoopOrder::kXInner},
          {"y_inner", &scenario_->history, y_inner},
          {"wavefront", &scenario_->history, std::nullopt},
          {"alternating", &alternating, std::nullopt},
          {"full circle, y_inner", &circle, y_inner},
          {"swath edges, y_inner", &edges, y_inner},
          {"swath edges, wavefront", &edges, std::nullopt}};
  const std::pair<const char*, const sim::PhaseHistory*> plan_cases[] = {
      {"scenario", &scenario_->history}, {"alternating", &alternating}};
  std::vector<bp::AsrKernel> kernels;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    for (const bp::KernelVariant variant :
         {bp::KernelVariant::kAuto, bp::KernelVariant::kGather,
          bp::KernelVariant::kShuffleTranspose}) {
      kernels.push_back({isa, variant});
    }
  }
  if (kernels.empty()) GTEST_SKIP() << "no vector ISA usable on this host";
  const auto negative_zeros = [](const Region& r) {
    bp::SoaTile tile(r.width, r.height);
    for (Index y = 0; y < r.height; ++y) {
      std::fill_n(tile.row_re(y), r.width, -0.0f);
      std::fill_n(tile.row_im(y), r.width, -0.0f);
    }
    return tile;
  };
  const auto kernel_name = [](const bp::AsrKernel& kernel) {
    return std::string(bp::simd_isa_name(kernel.isa)) + "/" +
           bp::kernel_variant_name(kernel.variant);
  };
  // Sweeps the case's tables over `pulses` of every block with `kernel`.
  const auto replay = [&](const CaseTables& c, const Region& r,
                          const bp::PulseRange& pulses,
                          const bp::AsrKernel& kernel) {
    bp::SoaTile tile = negative_zeros(r);
    const std::size_t per_block = c.orders.size();
    for (std::size_t b = 0; b < c.blocks.size(); ++b) {
      bp::sweep_asr_block(
          c.blocks[b], r.x0, r.y0,
          bp::PlanTables{c.tables.data() + b * per_block, c.orders.data()},
          pulses, kernel, tile);
    }
    return tile;
  };
  // An on-the-fly case: the scalar sweep building its own tables is the
  // reference; the case's tables, built once, replay with every vector
  // kernel.
  const auto expect_fly_case = [&](const sim::PhaseHistory& h,
                                   std::optional<geometry::LoopOrder> order,
                                   const Region& r, Index bw, Index bh,
                                   const std::string& name) {
    bp::SoaTile scalar = negative_zeros(r);
    const bp::PulseRange pulses[] = {{&h, 0, h.num_pulses()}};
    for (const auto& block :
         asr::plan_blocks(r.x0, r.y0, r.width, r.height, bw, bh)) {
      bp::sweep_asr_block(block, r.x0, r.y0, scenario_->grid, pulses, order,
                          bp::AsrKernel{}, scalar);
    }
    const CaseTables c = build_case_tables(h, order, r, bw, bh);
    for (const bp::AsrKernel& kernel : kernels) {
      EXPECT_TRUE(bit_identical(replay(c, r, pulses[0], kernel), scalar))
          << name << ", " << kernel_name(kernel);
    }
  };
  const std::pair<Index, Index> shapes[] = {
      {17, 17}, {33, 17}, {17, 33}, {5, 40},  {40, 5},
      {1, 9},   {9, 1},   {64, 64}, {96, 96}, {7, 24},
      {8, 24},  {9, 24},  {15, 24}, {16, 24}, {17, 24}};
  for (const auto& [bw, bh] : shapes) {
    const std::string shape = std::to_string(bw) + "x" + std::to_string(bh);
    for (const auto& [name, h, order] : fly_cases) {
      expect_fly_case(*h, order, region_, bw, bh,
                      shape + ", on the fly, " + name);
    }
    // A plan's tables, replayed by the scalar sweep and by every kernel.
    for (const auto& [name, h] : plan_cases) {
      const auto plan = service::build_formation_plan(scenario_->grid,
                                                      region_, bw, bh, *h);
      const CaseTables c{plan->blocks, plan->pulse_order, {},
                         {plan->tables.begin(), plan->tables.end()}};
      for (const Index begin : {Index{0}, kPulses / 2 + 1}) {
        const bp::PulseRange pulses{h, begin, h->num_pulses()};
        const bp::SoaTile scalar =
            replay(c, region_, pulses, bp::AsrKernel{});
        for (const bp::AsrKernel& kernel : kernels) {
          EXPECT_TRUE(bit_identical(replay(c, region_, pulses, kernel),
                                    scalar))
              << shape << ", plan, " << name << ", from pulse " << begin
              << ", " << kernel_name(kernel);
        }
      }
    }
  }
  // Rows whose last vector is a masked step on either lane count: the
  // scenario's pulses over a region centred in the image whose rows are
  // `len` pixels long, blocks of len x 8 under x_inner, 8 x len under
  // y_inner.
  for (const Index len : {7, 8, 9, 15, 16, 17, 24, 25, 31, 33}) {
    for (const auto order : {geometry::LoopOrder::kXInner, y_inner}) {
      const bool x_inner = order == geometry::LoopOrder::kXInner;
      const Index w = x_inner ? len : 48;
      const Index h = x_inner ? 48 : len;
      expect_fly_case(scenario_->history, order,
                      Region{(kImage - w) / 2, (kImage - h) / 2, w, h},
                      x_inner ? len : 8, x_inner ? 8 : len,
                      "row length " + std::to_string(len) +
                          (x_inner ? ", x_inner" : ", y_inner"));
    }
  }
  // Both orders occur, so both the workspace runs and the in-place rows
  // ran.
  const auto plan = service::build_formation_plan(
      scenario_->grid, region_, kBlock, kBlock, alternating);
  for (const auto order : {geometry::LoopOrder::kXInner, y_inner}) {
    EXPECT_NE(std::count(plan->pulse_order.begin(), plan->pulse_order.end(),
                         order),
              0);
  }
}

TEST_F(KernelVariantTest, WindowSampleBranchesMatchScalarBytes) {
  // kAuto's sample load (WindowSamples in both kernel TUs) broadcasts one
  // bin, loads a window or gathers. Hand-set tables put a row's lanes in
  // each case, per usable ISA of W lanes, and kAuto and kGather must give
  // the portable sweep's bytes there. Each pixel's bin is A[l] (B = C =
  // 0). The pulse holds exactly `kSamples` samples, so a read past it shows
  // under ASan. Every tile starts at -0, and the portable sweep must add to
  // exactly the pixels whose bin is in [0, samples - 1).
  constexpr Index kSamples = 40;
  constexpr float kLastBin = kSamples - 2;  // the last interpolable bin
  sim::PhaseHistory pulse(1, kSamples, 1.0, 1.0);
  Rng rng(32);
  for (CFloat& v : pulse.pulse(0)) {
    v = CFloat{static_cast<float>(rng.normal()),
               static_cast<float>(rng.normal())};
  }
  const auto unit = [&] {
    const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
    return std::pair{static_cast<float>(std::cos(a)),
                     static_cast<float>(std::sin(a))};
  };
  // A case: a row of `len` pixels, pixel l at bin(l, l mod W).
  struct Case {
    std::string name;
    Index len;
    std::function<float(Index l, Index lane)> bin;
  };
  // Lane i's fraction within its bin, so lanes on one bin interpolate
  // differently.
  const auto frac = [](Index lane) {
    return 0.05f + 0.06f * static_cast<float>(lane);
  };
  const auto cases = [&](Index w) {
    // The window's widest span (offsets 0 .. span) and the bin whose
    // window ends at the pulse's last sample.
    const Index span = w == 16 ? 6 : 2;
    const auto window_lo = static_cast<float>(kSamples - span - 2);
    std::vector<Case> c;
    c.push_back({"one bin", 2 * w,
                 [=](Index, Index i) { return 11.0f + frac(i); }});
    c.push_back({"last interpolable bin", 2 * w,
                 [=](Index, Index i) { return kLastBin + frac(i); }});
    const std::pair<const char*, float> bad[] = {
        {"-0.5", -0.5f},
        {"samples - 1", static_cast<float>(kSamples - 1)},
        {"NaN", std::numeric_limits<float>::quiet_NaN()},
        {"+inf", std::numeric_limits<float>::infinity()},
        {"2^31", 2147483648.0f},
        {"3e9", 3.0e9f}};
    for (const auto& [what, value] : bad) {
      for (const Index at : {Index{0}, w / 2, w - 1}) {
        c.push_back({std::string("one bin, lane ") + std::to_string(at) +
                         " at " + what,
                     2 * w, [=, v = value](Index l, Index i) {
                       return l == at ? v : 11.0f + frac(i);
                     }});
      }
    }
    // Every lane out of range on one truncated bin: In[bin + 1] is past
    // the pulse, so no load may take it.
    c.push_back({"every lane on bin samples - 1", 2 * w, [=](Index, Index i) {
                   return static_cast<float>(kSamples - 1) + frac(i);
                 }});
    c.push_back({"every lane NaN", 2 * w, [=](Index, Index) {
                   return std::numeric_limits<float>::quiet_NaN();
                 }});
    c.push_back({"two adjacent bins", 2 * w, [=](Index, Index i) {
                   return (i < w / 2 ? 11.0f : 12.0f) + frac(i);
                 }});
    c.push_back({"two adjacent bins, alternating", 2 * w, [=](Index, Index i) {
                   return (i % 2 == 0 ? 12.0f : 11.0f) + frac(i);
                 }});
    c.push_back({"two adjacent bins at the pulse's end", 2 * w,
                 [=](Index, Index i) {
                   return (i % 2 == 0 ? kLastBin - 1 : kLastBin) + frac(i);
                 }});
    // Lane 0 on lo, lane W - 1 on lo + span, the window In[lo .. lo + span
    // + 2) ending at the pulse's last sample; then the same span
    // descending; then spans that must gather: a window that would end one
    // sample past the pulse, and one offset wider than the window.
    const auto spread = [=](Index i, Index width) {
      return static_cast<float>(i * width / (w - 1));
    };
    c.push_back({"widest window at the pulse's end", 2 * w,
                 [=](Index, Index i) {
                   return window_lo + spread(i, span) + frac(i);
                 }});
    c.push_back({"widest window, descending", 2 * w, [=](Index, Index i) {
                   return window_lo + spread(w - 1 - i, span) + frac(i);
                 }});
    c.push_back({"window one sample past the pulse's end", 2 * w,
                 [=](Index, Index i) {
                   return window_lo + 1.0f + spread(i, span - 1) + frac(i);
                 }});
    c.push_back({"one bin past the window", 2 * w, [=](Index, Index i) {
                   return window_lo - 1.0f + spread(i, span + 1) + frac(i);
                 }});
    c.push_back({"wide span", 2 * w, [=](Index, Index i) {
                   return 2.0f + 2.0f * static_cast<float>(i) + frac(i);
                 }});
    c.push_back({"masked tail on one bin", w + 5,
                 [=](Index, Index i) { return 11.0f + frac(i); }});
    c.push_back({"masked tail on the last interpolable bin", w + 5,
                 [=](Index, Index i) { return kLastBin + frac(i); }});
    return c;
  };
  bool checked = false;
  for (const auto& [isa, w] : {std::pair{bp::SimdIsa::kAvx2, Index{8}},
                               std::pair{bp::SimdIsa::kAvx512, Index{16}}}) {
    if (!bp::asr_isa_available(isa)) continue;
    checked = true;
    for (const Case& c : cases(w)) {
      SCOPED_TRACE(std::string(bp::simd_isa_name(isa)) + ", " + c.name);
      constexpr Index kRows = 2;
      testing::OwnedTables owned(c.len, kRows);
      asr::BlockTables& tables = owned.view;
      for (Index l = 0; l < c.len; ++l) {
        const auto i = static_cast<std::size_t>(l);
        tables.bin_a[i] = c.bin(l, l % w);
        std::tie(tables.phi_re[i], tables.phi_im[i]) = unit();
        std::tie(tables.omega_re[i], tables.omega_im[i]) = unit();
      }
      for (Index m = 0; m < kRows; ++m) {
        const auto i = static_cast<std::size_t>(m);
        tables.bin_b[i] = 0.0f;
        tables.bin_c[i] = 0.0f;
        std::tie(tables.psi_re[i], tables.psi_im[i]) = unit();
      }
      const auto order = geometry::LoopOrder::kXInner;
      const auto sweep = [&](const bp::AsrKernel& kernel) {
        bp::SoaTile tile(c.len, kRows);
        for (Index y = 0; y < kRows; ++y) {
          std::fill_n(tile.row_re(y), c.len, -0.0f);
          std::fill_n(tile.row_im(y), c.len, -0.0f);
        }
        bp::sweep_asr_block(asr::BlockSpec{0, 0, c.len, kRows}, 0, 0,
                            bp::PlanTables{&tables, &order},
                            bp::PulseRange{&pulse, 0, 1}, kernel, tile);
        return tile;
      };
      const bp::SoaTile scalar = sweep(bp::AsrKernel{});
      for (Index l = 0; l < c.len; ++l) {
        const float bin = tables.bin_a[static_cast<std::size_t>(l)];
        const bool in_range = bin >= 0.0f && bin < kSamples - 1;
        EXPECT_EQ(std::signbit(scalar.row_re(0)[l]) &&
                      scalar.row_re(0)[l] == 0.0f,
                  !in_range)
            << "pixel " << l << ", bin " << bin;
      }
      for (const bp::KernelVariant variant :
           {bp::KernelVariant::kAuto, bp::KernelVariant::kGather}) {
        EXPECT_TRUE(bit_identical(sweep({isa, variant}), scalar))
            << bp::kernel_variant_name(variant);
      }
    }
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

/// Every array of two table sets, byte for byte.
bool same_table_bytes(const asr::BlockTables& a, const asr::BlockTables& b) {
  if (a.width != b.width || a.height != b.height) return false;
  const std::pair<std::span<float>, std::span<float>> arrays[] = {
      {a.bin_a, b.bin_a},       {a.phi_re, b.phi_re},
      {a.phi_im, b.phi_im},     {a.omega_re, b.omega_re},
      {a.omega_im, b.omega_im}, {a.bin_b, b.bin_b},
      {a.bin_c, b.bin_c},       {a.psi_re, b.psi_re},
      {a.psi_im, b.psi_im}};
  for (const auto& [x, y] : arrays) {
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

TEST_F(KernelVariantTest, TableBuildLaneGroupsMatchScalarBytes) {
  // The vector table build runs asr::expand_table_seeds's recurrences one
  // table per f64 lane (AVX2: 4, AVX-512: 8) with the rounding pinned, so
  // each ISA writes the scalar build's bytes. Inputs: square, non-square
  // and 1x1 blocks; a 512 x 3 block, whose 512-entry tables renormalize at
  // entries 63, 127, ...; lane groups mixing both loop orders (on a
  // non-square block the lanes' tables differ in length) and two
  // histories; slot counts 1, W - 1, W + 1 and 2W + 3 for both widths. The
  // vector build writes into one buffer reused across shapes, so stale
  // entries of earlier shapes sit in its padding.
  const sim::PhaseHistory circle = load_path_history(75, -10.0);
  const asr::BlockSpec blocks[] = {{0, 0, 64, 64},  {5, 40, 33, 17},
                                   {60, 3, 17, 33}, {95, 95, 1, 1},
                                   {0, 0, 512, 3}};
  const std::size_t counts[] = {1, 3, 5, 7, 9, 11, 19};
  // Slot i's tables view `storage` at i * stride, room for either order.
  const auto slots_for = [&](const asr::BlockSpec& block, std::size_t count,
                             AlignedVector<float>& storage,
                             std::vector<asr::BlockTables>& out) {
    const std::size_t stride = std::max(
        asr::BlockTables::footprint_floats(block.width, block.height),
        asr::BlockTables::footprint_floats(block.height, block.width));
    if (storage.size() < stride * count) storage.resize(stride * count);
    out.resize(count);
    std::vector<bp::TableSlot> slots(count);
    for (std::size_t i = 0; i < count; ++i) {
      const bool from_circle = i % 4 == 3;
      const sim::PhaseHistory& h = from_circle ? circle : scenario_->history;
      const bool x_inner = i % 3 != 1;
      out[i] = asr::BlockTables(storage.data() + i * stride,
                                x_inner ? block.width : block.height,
                                x_inner ? block.height : block.width);
      slots[i] = {&h, static_cast<Index>(i) % h.num_pulses(),
                  x_inner ? geometry::LoopOrder::kXInner
                          : geometry::LoopOrder::kYInner,
                  &out[i]};
    }
    return slots;
  };
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    SCOPED_TRACE(bp::simd_isa_name(isa));
    AlignedVector<float> vector_storage;
    std::vector<asr::BlockTables> vector_tables;
    for (const auto& block : blocks) {
      for (const std::size_t count : counts) {
        SCOPED_TRACE(std::to_string(block.width) + "x" +
                     std::to_string(block.height) + ", " +
                     std::to_string(count) + " tables");
        AlignedVector<float> scalar_storage;
        std::vector<asr::BlockTables> scalar_tables;
        bp::build_asr_tables(
            scenario_->grid, block,
            slots_for(block, count, scalar_storage, scalar_tables),
            bp::SimdIsa::kScalar);
        bp::build_asr_tables(
            scenario_->grid, block,
            slots_for(block, count, vector_storage, vector_tables), isa);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_TRUE(same_table_bytes(vector_tables[i], scalar_tables[i]))
              << "table " << i;
        }
      }
    }
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, TableBuildRefusesARadarOnTheBlockCentre) {
  // A pulse whose radar sits on a block's centre has no range quadratic
  // (asr::range_quadratic refuses it). The vector lanes refuse it too, in
  // any lane and under either order, and the build throws its
  // PreconditionError on every ISA.
  const asr::BlockSpec block{8, 16, 32, 17};
  const geometry::Vec3 centre = scenario_->grid.position_f(
      static_cast<double>(block.x0) +
          0.5 * static_cast<double>(block.width - 1),
      static_cast<double>(block.y0) +
          0.5 * static_cast<double>(block.height - 1));
  for (const Index bad : {0, 5}) {
    sim::PhaseHistory h = scenario_->history;
    h.meta(bad).position = centre;
    for (const bp::SimdIsa isa : {bp::SimdIsa::kScalar, bp::SimdIsa::kAvx2,
                                  bp::SimdIsa::kAvx512}) {
      if (!bp::asr_isa_available(isa)) continue;
      for (const auto order :
           {geometry::LoopOrder::kXInner, geometry::LoopOrder::kYInner}) {
        SCOPED_TRACE(std::string(bp::simd_isa_name(isa)) + ", pulse " +
                     std::to_string(bad));
        const bool x_inner = order == geometry::LoopOrder::kXInner;
        const Index w = x_inner ? block.width : block.height;
        const Index h_ = x_inner ? block.height : block.width;
        AlignedVector<float> storage(
            7 * asr::BlockTables::footprint_floats(w, h_));
        std::vector<asr::BlockTables> tables;
        std::vector<bp::TableSlot> slots;
        tables.reserve(7);
        for (Index p = 0; p < 7; ++p) {
          tables.emplace_back(
              storage.data() +
                  p * static_cast<Index>(
                          asr::BlockTables::footprint_floats(w, h_)),
              w, h_);
          slots.push_back({&h, p, order, &tables.back()});
        }
        EXPECT_THROW(bp::build_asr_tables(scenario_->grid, block, slots, isa),
                     PreconditionError);
      }
    }
  }
}

TEST(TableLanes, UnitPhaseMatchesScalarBits) {
  // The vector lanes' sincos is the scalar asr::unit_phase's template at
  // their width (asr/seed_lanes.h), so every usable ISA gives its bits:
  // at the quadrant points and their neighbours, and for phases up to
  // 2^23 * 2*pi; 1001 phases, so the last lane group is partial.
  std::vector<double> phases;
  for (int eighth = -8; eighth <= 8; ++eighth) {
    double x = eighth * std::numbers::pi / 4.0;
    for (int step = 0; step < 3; ++step) x = std::nextafter(x, -100.0);
    for (int step = 0; step < 7; ++step) {
      phases.push_back(x);
      x = std::nextafter(x, 100.0);
    }
  }
  Rng rng(23);
  while (phases.size() < 1001) {
    phases.push_back(rng.uniform(-8388608.0, 8388608.0) * 2.0 *
                     std::numbers::pi);
  }
  std::vector<double> scalar_re(phases.size());
  std::vector<double> scalar_im(phases.size());
  bp::unit_phases(phases, scalar_re, scalar_im, bp::SimdIsa::kScalar);
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    SCOPED_TRACE(bp::simd_isa_name(isa));
    std::vector<double> re(phases.size());
    std::vector<double> im(phases.size());
    bp::unit_phases(phases, re, im, isa);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      EXPECT_EQ(std::memcmp(&re[i], &scalar_re[i], sizeof(double)), 0)
          << "phase " << phases[i] << ": " << re[i] << " vs " << scalar_re[i];
      EXPECT_EQ(std::memcmp(&im[i], &scalar_im[i], sizeof(double)), 0)
          << "phase " << phases[i] << ": " << im[i] << " vs " << scalar_im[i];
    }
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

}  // namespace
}  // namespace sarbp
