// Driver-level tests: the batch Backprojector against single-threaded
// kernel runs, every kernel option through the driver, the §2 incremental
// accumulator (bp::SlidingWindow: its running sum, re-sum, anchoring
// push, copy-on-write image and block-wise slide, and incremental vs
// monolithic backprojection), the Fig. 7
// breakdown instrumentation, and the empirical gather-locality counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "asr/block_plan.h"
#include "backprojection/backprojector.h"
#include "backprojection/breakdown.h"
#include "backprojection/locality.h"
#include "backprojection/sliding_window.h"
#include "common/snr.h"
#include "exec/formation_tasks.h"
#include "test_helpers.h"

namespace sarbp::bp {
namespace {

using exec::Backprojector;
using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

class DriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.image = 128;
    cfg.pulses = 32;
    scenario_ = new SmallScenario(make_scenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static SmallScenario* scenario_;
};

SmallScenario* DriverTest::scenario_ = nullptr;

TEST_F(DriverTest, DriverMatchesDirectKernelCall) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  const Backprojector driver(s.grid, opts);
  const Grid2D<CFloat> via_driver = driver.form_image(s.history);

  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile tile(all.width, all.height);
  backproject_asr_scalar(s.history, s.grid, all, 0, s.history.num_pulses(),
                         64, 64, geometry::LoopOrder::kXInner, tile);
  Grid2D<CFloat> direct(all.width, all.height);
  tile.accumulate_into(direct, all);

  // The driver may reorder loops per pulse; results agree to rounding.
  EXPECT_GT(snr_db(via_driver, direct), 60.0);
}

bool same_bytes(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::equal(a.data(), a.data() + a.width() * a.height(), b.data(),
                    [](CFloat u, CFloat v) {
                      return std::bit_cast<std::uint64_t>(u) ==
                             std::bit_cast<std::uint64_t>(v);
                    });
}

// The batch driver sweeps one ASR block per task over every pulse, so at
// any thread count every float kernel gives one serial kernel call's bytes
// over the whole grid, with each pulse in its wavefront order or with the
// order switching every 8 pulses. 96 = 64 + 32 leaves edge blocks; 200 is
// no multiple of the block.
TEST_F(DriverTest, MultiThreadMatchesSingleThread) {
  for (const Index image : {96, 200}) {
    ScenarioConfig cfg;
    cfg.image = image;
    cfg.pulses = 48;
    const SmallScenario s = make_scenario(cfg);
    const sim::PhaseHistory alternating =
        sarbp::testing::alternate_loop_orders(s.history, s.grid.centre());
    for (const sim::PhaseHistory* history : {&s.history, &alternating}) {
      for (KernelKind kind :
           {KernelKind::kBaseline, KernelKind::kBaselineAllFloat,
            KernelKind::kAsrScalar, KernelKind::kAsrSimd}) {
        if (kind == KernelKind::kAsrSimd && !asr_simd_available()) continue;
        BackprojectOptions opts;
        opts.kernel = kind;
        const Grid2D<CFloat> expected =
            sarbp::testing::serial_kernel_image(*history, s.grid, opts);
        for (const int threads : {1, 2, 4, 8}) {
          opts.threads = threads;
          EXPECT_TRUE(same_bytes(
              Backprojector(s.grid, opts).form_image(*history), expected))
              << image << "^2, " << kernel_name(kind) << ", "
              << (history == &alternating ? "alternating orders, " : "")
              << threads << " threads";
        }
      }
    }
  }
}

TEST_F(DriverTest, DynamicReorderPreservesResult) {
  // Each pulse in its wavefront loop order (std::nullopt, what
  // run_cube_part passes) against one fixed order for every pulse: the
  // same image to ASR precision.
  const auto& s = *scenario_;
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const auto form = [&](std::optional<geometry::LoopOrder> order) {
    SoaTile tile(all.width, all.height);
    backproject_asr_scalar(s.history, s.grid, all, 0, s.history.num_pulses(),
                           64, 64, order, tile);
    Grid2D<CFloat> image(all.width, all.height);
    tile.accumulate_into(image, all);
    return image;
  };
  EXPECT_GT(snr_db(form(std::nullopt), form(geometry::LoopOrder::kXInner)),
            60.0);
}

TEST_F(DriverTest, AddPulsesRegionCoversSubimage) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  const Region region{32, 16, 64, 48};
  add_pulses_region(s.history, s.grid, opts, region, 0,
                    s.history.num_pulses(), out);
  // Pixels outside the region stay zero.
  for (Index y = 0; y < out.height(); ++y) {
    for (Index x = 0; x < out.width(); ++x) {
      if (!region.contains(x, y)) {
        ASSERT_EQ(out.at(x, y), CFloat{}) << x << "," << y;
      }
    }
  }
  // Pixels inside are populated.
  double energy = 0.0;
  for (Index y = region.y0; y < region.y0 + region.height; ++y) {
    for (Index x = region.x0; x < region.x0 + region.width; ++x) {
      energy += std::norm(out.at(x, y));
    }
  }
  EXPECT_GT(energy, 0.0);
}

TEST_F(DriverTest, DefaultKernelFormsConstructorFilledHistory) {
  // A history filled through the constructor and pulse()/meta() — what
  // StreamSession::window_history() returns — forms the same bytes as the
  // collected original under the default kernel (kAsrSimd on vector
  // hosts).
  const auto& s = *scenario_;
  const sim::PhaseHistory& original = s.history;
  sim::PhaseHistory copy(original.num_pulses(), original.samples_per_pulse(),
                         original.bin_spacing(), original.wavenumber());
  for (Index p = 0; p < original.num_pulses(); ++p) {
    const auto src = original.pulse(p);
    std::copy(src.begin(), src.end(), copy.pulse(p).begin());
    copy.meta(p) = original.meta(p);
  }
  BackprojectOptions opts;
  opts.threads = 1;
  const Backprojector driver(s.grid, opts);
  const Grid2D<CFloat> expected = driver.form_image(original);
  const Grid2D<CFloat> formed = driver.form_image(copy);
  for (Index y = 0; y < expected.height(); ++y) {
    for (Index x = 0; x < expected.width(); ++x) {
      ASSERT_EQ(formed.at(x, y), expected.at(x, y)) << x << "," << y;
    }
  }
}

TEST_F(DriverTest, RefDoubleKernelRejectedAtConstruction) {
  BackprojectOptions opts;
  opts.kernel = KernelKind::kRefDouble;
  EXPECT_THROW(Backprojector(scenario_->grid, opts), PreconditionError);
}

// The Accumulator suite tests the paper's §2 circular buffer,
// bp::SlidingWindow.

/// `value` at every pixel of a width x height partial image.
SlidingWindow::Partial filled(Index width, Index height, CFloat value) {
  return std::make_shared<const Grid2D<CFloat>>(width, height, value);
}

TEST(Accumulator, SumsStoredBatches) {
  SlidingWindow window(4, 4, 3);
  window.push(filled(4, 4, CFloat{1.0f, 0.0f}));
  window.push(filled(4, 4, CFloat{0.0f, 2.0f}));
  EXPECT_EQ(window.image().at(1, 1), CFloat(1.0f, 2.0f));
  EXPECT_EQ(window.resum(), window.image());
  EXPECT_EQ(window.stored(), 2);
  EXPECT_EQ(window.capacity(), 3);
  EXPECT_EQ(window.pushes_since_anchor(), 2);
}

TEST(Accumulator, EvictsOldestBeyondCapacity) {
  SlidingWindow window(2, 2, 2);
  window.push(filled(2, 2, CFloat{1.0f, 0.0f}));
  window.push(filled(2, 2, CFloat{10.0f, 0.0f}));
  window.push(filled(2, 2, CFloat{100.0f, 0.0f}));
  EXPECT_EQ(window.stored(), 2);
  EXPECT_EQ(window.image().at(0, 0), CFloat(110.0f, 0.0f));
  EXPECT_EQ(window.resum().at(0, 0), CFloat(110.0f, 0.0f));
}

TEST(Accumulator, RunningSumAddsNewestThenSubtractsEvicted) {
  // 1e8 absorbs a 1 in float, so the order of the slide's operations
  // shows: ((1e8 + 1) + 1) - 1e8 is 0, while subtracting the evicted
  // image first, ((1e8 + 1) - 1e8) + 1, would give 1; the re-sum is 2.
  SlidingWindow window(3, 2, 2);
  window.push(filled(3, 2, CFloat{1e8f, -1e8f}));
  window.push(filled(3, 2, CFloat{1.0f, 1.0f}));
  window.push(filled(3, 2, CFloat{1.0f, 1.0f}));
  EXPECT_EQ(window.image().at(2, 1), CFloat(0.0f, 0.0f));
  EXPECT_EQ(window.resum().at(2, 1), CFloat(2.0f, 2.0f));
  EXPECT_EQ(window.pushes_since_anchor(), 3);
  // The anchoring push stores and evicts as a push does, but its exact
  // image replaces the running one unslid: the slide would read
  // (0 + 2) - 1 = 1, and the stored partials sum to 3.
  window.push(filled(3, 2, CFloat{2.0f, 2.0f}), filled(3, 2, CFloat{3.0f, 3.0f}),
              /*exact=*/true);
  EXPECT_EQ(window.stored(), 2);
  EXPECT_EQ(window.image(), window.resum());
  EXPECT_EQ(window.pushes_since_anchor(), 0);
  window.push(filled(3, 2, CFloat{4.0f, 0.0f}));  // evicts a {1, 1}
  EXPECT_EQ(window.image().at(0, 0), CFloat(6.0f, 2.0f));
  EXPECT_EQ(window.pushes_since_anchor(), 1);
}

TEST(Accumulator, FootprintTracksStoredBatches) {
  SlidingWindow window(8, 8, 4);
  EXPECT_EQ(window.footprint_bytes(), 0u);
  window.push(filled(8, 8, CFloat{}));
  EXPECT_EQ(window.footprint_bytes(), 8u * 8u * sizeof(CFloat));
}

TEST(Accumulator, PaperScaleFootprintDoesNotOverflow) {
  // The paper's wide-area grids are 57K x 57K pixels; one CFloat batch at
  // that size is ~26 GB. With Index (int64) factors multiplied in 32 bits
  // the product wraps — the arithmetic must widen to size_t first.
  constexpr Index kPaperDim = 57344;  // 57K, a 7 km scene at 0.125 m pixels
  constexpr std::size_t kExpected = static_cast<std::size_t>(kPaperDim) *
                                    static_cast<std::size_t>(kPaperDim) *
                                    sizeof(CFloat);
  EXPECT_EQ(SlidingWindow::batch_bytes(kPaperDim, kPaperDim), kExpected);
  EXPECT_GT(kExpected, std::size_t{1} << 34);  // really is beyond 32 bits
  // The paper's pipeline keeps Naccum = 36 such buffers resident (~948 GB
  // across the cluster); the per-batch figure must scale without wrapping.
  EXPECT_EQ(36u * SlidingWindow::batch_bytes(kPaperDim, kPaperDim),
            36u * kExpected);
}

TEST(Accumulator, IncrementalEqualsMonolithicBackprojection) {
  // The paper's §2 linearity argument: backprojecting pulse batches
  // separately and summing equals backprojecting all pulses at once.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 40;
  const SmallScenario s = make_scenario(cfg);
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const auto pulses = [&](Index p0, Index p1) {
    Grid2D<CFloat> img(s.grid.width(), s.grid.height());
    add_pulses_region(s.history, s.grid, opts, all, p0, p1, img);
    return img;
  };

  // Incremental: batches of 10 through a window of three.
  SlidingWindow window(s.grid.width(), s.grid.height(), 3);
  for (Index batch = 0; batch < 3; ++batch) {
    window.push(std::make_shared<const Grid2D<CFloat>>(
        pulses(batch * 10, (batch + 1) * 10)));
  }
  // Monolithic: all 30 pulses at once.
  EXPECT_GT(snr_db(window.image(), pulses(0, 30)), 100.0);
  // The fourth batch evicts the first: the running sum, pulses 10-40, now
  // carries the slide's rounding, the re-sum none.
  window.push(std::make_shared<const Grid2D<CFloat>>(pulses(30, 40)));
  const Grid2D<CFloat> monolithic = pulses(10, 40);
  EXPECT_GT(snr_db(window.image(), monolithic), 70.0);
  EXPECT_GT(snr_db(window.resum(), monolithic), 100.0);
}

TEST(Accumulator, ShapeMismatchThrows) {
  SlidingWindow window(4, 4, 1);
  EXPECT_THROW(window.push(filled(3, 4, CFloat{})), PreconditionError);
  EXPECT_THROW(window.push(nullptr), PreconditionError);
  EXPECT_THROW(window.push(filled(4, 4, CFloat{}), filled(4, 3, CFloat{}), true),
               PreconditionError);
  EXPECT_THROW(window.push(nullptr, filled(4, 4, CFloat{}), true),
               PreconditionError);
  EXPECT_THROW(window.push(filled(4, 4, CFloat{}), nullptr, false),
               PreconditionError);
  EXPECT_EQ(window.stored(), 0);  // a refused push stores nothing
  EXPECT_THROW(SlidingWindow(4, 4, 0), PreconditionError);
  Grid2D<CFloat> out(4, 4);
  EXPECT_THROW(SlidingWindow::slide(out, out, nullptr, out, {2, 0, 3, 4}),
               PreconditionError);
}

// Copy-on-write: the running image is immutable once shared.

TEST(Accumulator, HeldImageKeepsItsBytesAcrossPushes) {
  SlidingWindow window(3, 2, 2);
  window.push(filled(3, 2, CFloat{1.0f, 0.0f}));
  const SlidingWindow::Image held = window.shared_image();
  const Grid2D<CFloat> bytes = *held;
  window.push(filled(3, 2, CFloat{2.0f, 0.0f}));
  window.push(filled(3, 2, CFloat{4.0f, 0.0f}));  // evicts the {1, 0}
  EXPECT_EQ(*held, bytes);
  EXPECT_NE(window.shared_image(), held);
  EXPECT_EQ(window.image().at(2, 1), CFloat(6.0f, 0.0f));
}

TEST(Accumulator, SoleHolderSlidesInPlace) {
  SlidingWindow window(8, 4, 2);
  const CFloat* data = window.image().data();
  for (int p = 1; p <= 4; ++p) {  // two of them evict
    window.push(filled(8, 4, CFloat{static_cast<float>(p), 0.0f}));
    EXPECT_EQ(window.image().data(), data) << "push " << p;
  }
  EXPECT_EQ(window.image().at(7, 3), CFloat(7.0f, 0.0f));
  {  // Held, the image is copied once; released, the copy slides in place.
    const SlidingWindow::Image held = window.shared_image();
    window.push(filled(8, 4, CFloat{5.0f, 0.0f}));
  }
  data = window.image().data();
  window.push(filled(8, 4, CFloat{6.0f, 0.0f}));
  EXPECT_EQ(window.image().data(), data);
  EXPECT_EQ(window.image().at(0, 0), CFloat(11.0f, 0.0f));
}

TEST(Accumulator, BlockSlidesInAnyOrderGivePushBytes) {
  // Values whose sums round, so the slide's order of operations shows.
  const auto noise = [](Index width, Index height, std::uint64_t seed) {
    auto image = std::make_shared<Grid2D<CFloat>>(width, height);
    std::uint64_t state = seed;
    for (CFloat& v : image->flat()) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto bits = static_cast<std::uint32_t>(state >> 33);
      v = CFloat(static_cast<float>(bits % 2000003) * 1e3f - 1e9f,
                 static_cast<float>(bits % 1009) * 0.37f);
    }
    return SlidingWindow::Partial(std::move(image));
  };
  constexpr Index kWidth = 37;
  constexpr Index kHeight = 21;
  const std::vector<asr::BlockSpec> blocks =
      asr::plan_blocks(0, 0, kWidth, kHeight, 16, 16);
  ASSERT_GT(blocks.size(), 4u);
  SlidingWindow pushed(kWidth, kHeight, 2);
  SlidingWindow slid(kWidth, kHeight, 2);
  for (std::uint64_t p = 1; p <= 5; ++p) {
    const SlidingWindow::Partial partial = noise(kWidth, kHeight, p);
    Grid2D<CFloat> next(kWidth, kHeight);
    std::vector<std::size_t> order(blocks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), std::mt19937_64(p));
    for (const std::size_t b : order) {
      const asr::BlockSpec& block = blocks[b];
      SlidingWindow::slide(slid.image(), *partial, slid.evicting().get(), next,
                           {block.x0, block.y0, block.width, block.height});
    }
    pushed.push(partial);
    slid.push(partial, std::make_shared<const Grid2D<CFloat>>(std::move(next)),
              /*exact=*/false);
    EXPECT_EQ(slid.image(), pushed.image()) << "push " << p;
    EXPECT_EQ(slid.pushes_since_anchor(), pushed.pushes_since_anchor());
  }
  EXPECT_NE(pushed.image(), pushed.resum());  // the slide really rounded
}

TEST(Breakdown, BaselineSectionsRoughlySumToTotal) {
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 12;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const BaselineBreakdown b = measure_baseline_breakdown(
      s.history, s.grid, all, 0, s.history.num_pulses());
  EXPECT_GT(b.total_s, 0.0);
  const double sum = b.other_s + b.sqrt_s + b.interp_s + b.argred_s + b.sincos_s;
  // Differential timing is noisy on a busy machine; the parts must still
  // land in the right ballpark of the whole.
  EXPECT_GT(sum, 0.3 * b.total_s);
  EXPECT_LT(sum, 3.0 * b.total_s);
  EXPECT_GE(b.trig_s(), b.sincos_s);
}

TEST(Breakdown, AsrInnerPlusPrecomputeIsTotal) {
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 12;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  // The table builds are timed inside the kernel pass's own interval, so
  // the split holds by construction, for the scalar and the SIMD sweep.
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAuto}) {
    const AsrBreakdown b = measure_asr_breakdown(
        s.history, s.grid, all, 0, s.history.num_pulses(), 64, 64, isa);
    EXPECT_GT(b.total_s, 0.0);
    EXPECT_GE(b.precompute_s, 0.0);
    EXPECT_LE(b.precompute_s, b.total_s);
    EXPECT_GE(b.inner_s, 0.0);
    EXPECT_NEAR(b.precompute_s + b.inner_s, b.total_s, 1e-9);
  }
}

TEST(Breakdown, AsrFasterThanBaseline) {
  // The core Fig. 7 claim at kernel granularity: the strength-reduced
  // kernel beats the baseline clearly (paper: 2.2x on Xeon).
  ScenarioConfig cfg;
  cfg.image = 128;
  cfg.pulses = 16;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const BaselineBreakdown base = measure_baseline_breakdown(
      s.history, s.grid, all, 0, s.history.num_pulses());
  const AsrBreakdown asr = measure_asr_breakdown(s.history, s.grid, all, 0,
                                                 s.history.num_pulses(), 64, 64);
  EXPECT_LT(asr.total_s, base.total_s);
}

TEST(Locality, ReorderingImprovesMeasuredRunLength) {
  ScenarioConfig cfg;
  cfg.image = 128;
  cfg.pulses = 4;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const geometry::LoopOrder good = geometry::choose_loop_order(
      s.history.meta(0).position, s.grid.centre());
  const geometry::LoopOrder bad = good == geometry::LoopOrder::kXInner
                                      ? geometry::LoopOrder::kYInner
                                      : geometry::LoopOrder::kXInner;
  const LocalityStats with = measure_gather_locality(s.history, s.grid, all,
                                                     0, good);
  const LocalityStats without = measure_gather_locality(s.history, s.grid,
                                                        all, 0, bad);
  EXPECT_GT(with.mean_run_length, without.mean_run_length);
  EXPECT_LE(with.cache_lines_per_gather, without.cache_lines_per_gather);
  EXPECT_GE(with.mean_run_length, 1.0);
  EXPECT_GE(without.mean_run_length, 1.0);
}

TEST(Locality, CacheLinesPerGatherBounded) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 2;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const LocalityStats stats = measure_gather_locality(
      s.history, s.grid, all, 0, geometry::LoopOrder::kXInner, 16);
  EXPECT_GE(stats.cache_lines_per_gather, 1.0);
  EXPECT_LE(stats.cache_lines_per_gather, 16.0);
}

}  // namespace
}  // namespace sarbp::bp
