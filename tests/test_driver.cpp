// Driver-level tests: the batch Backprojector against single-threaded
// kernel runs, every kernel option through the driver, incremental
// (circular-buffer) accumulation vs monolithic backprojection, the Fig. 7
// breakdown instrumentation, and the empirical gather-locality counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "backprojection/accumulator.h"
#include "backprojection/backprojector.h"
#include "backprojection/breakdown.h"
#include "backprojection/locality.h"
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

TEST_F(DriverTest, MultiThreadMatchesSingleThread) {
  const auto& s = *scenario_;
  for (KernelKind kind : {KernelKind::kAsrSimd, KernelKind::kBaseline}) {
    if (kind == KernelKind::kAsrSimd && !asr_simd_available()) continue;
    BackprojectOptions opts;
    opts.kernel = kind;
    opts.threads = 1;
    const Grid2D<CFloat> one = Backprojector(s.grid, opts).form_image(s.history);
    opts.threads = 4;  // forces a multi-part decomposition even on 1 core
    const Grid2D<CFloat> four = Backprojector(s.grid, opts).form_image(s.history);
    EXPECT_GT(snr_db(four, one), 80.0) << kernel_name(kind);
  }
}

TEST_F(DriverTest, PulseSplitPartitionsStillCorrect) {
  // Tiny image + many workers forces pulse-dimension splitting, which
  // exercises the overlapping-region reduction path.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 32;
  const SmallScenario s = make_scenario(cfg);
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.min_region_edge = 64;
  opts.threads = 1;
  const Grid2D<CFloat> one = Backprojector(s.grid, opts).form_image(s.history);
  opts.threads = 8;
  const Grid2D<CFloat> eight = Backprojector(s.grid, opts).form_image(s.history);
  EXPECT_GT(snr_db(eight, one), 80.0);
}

TEST_F(DriverTest, DynamicReorderPreservesResult) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  opts.dynamic_reorder = true;
  const Grid2D<CFloat> reordered = Backprojector(s.grid, opts).form_image(s.history);
  opts.dynamic_reorder = false;
  const Grid2D<CFloat> fixed = Backprojector(s.grid, opts).form_image(s.history);
  EXPECT_GT(snr_db(reordered, fixed), 60.0);
}

TEST_F(DriverTest, PulseChunkingPreservesResult) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  opts.pulse_chunk = 4;
  const Grid2D<CFloat> chunked = Backprojector(s.grid, opts).form_image(s.history);
  opts.pulse_chunk = 1024;
  const Grid2D<CFloat> monolithic = Backprojector(s.grid, opts).form_image(s.history);
  EXPECT_GT(snr_db(chunked, monolithic), 100.0);
}

TEST_F(DriverTest, AddPulsesRegionCoversSubimage) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  const Backprojector driver(s.grid, opts);
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  const Region region{32, 16, 64, 48};
  driver.add_pulses_region(s.history, region, 0, s.history.num_pulses(), out);
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

TEST_F(DriverTest, BackprojectionsCountsPixelPulsePairs) {
  const auto& s = *scenario_;
  const Backprojector driver(s.grid, {});
  EXPECT_DOUBLE_EQ(driver.backprojections(s.history),
                   static_cast<double>(s.grid.width() * s.grid.height() *
                                       s.history.num_pulses()));
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

TEST(Accumulator, SumsStoredBatches) {
  IncrementalAccumulator acc(4, 4, 2);
  Grid2D<CFloat> a(4, 4, CFloat{1.0f, 0.0f});
  Grid2D<CFloat> b(4, 4, CFloat{0.0f, 2.0f});
  acc.push(a);
  acc.push(b);
  const Grid2D<CFloat> sum = acc.current();
  EXPECT_EQ(sum.at(1, 1), CFloat(1.0f, 2.0f));
  EXPECT_EQ(acc.stored(), 2);
  EXPECT_EQ(acc.capacity(), 3);
}

TEST(Accumulator, EvictsOldestBeyondCapacity) {
  IncrementalAccumulator acc(2, 2, 1);  // capacity 2 batches
  acc.push(Grid2D<CFloat>(2, 2, CFloat{1.0f, 0.0f}));
  acc.push(Grid2D<CFloat>(2, 2, CFloat{10.0f, 0.0f}));
  acc.push(Grid2D<CFloat>(2, 2, CFloat{100.0f, 0.0f}));
  EXPECT_EQ(acc.stored(), 2);
  EXPECT_EQ(acc.current().at(0, 0), CFloat(110.0f, 0.0f));
}

TEST(Accumulator, FootprintTracksStoredBatches) {
  IncrementalAccumulator acc(8, 8, 3);
  EXPECT_EQ(acc.footprint_bytes(), 0u);
  acc.push(Grid2D<CFloat>(8, 8));
  EXPECT_EQ(acc.footprint_bytes(), 8u * 8u * sizeof(CFloat));
}

TEST(Accumulator, PaperScaleFootprintDoesNotOverflow) {
  // The paper's wide-area grids are 57K x 57K pixels; one CFloat batch at
  // that size is ~26 GB. With Index (int64) factors multiplied in 32 bits
  // the product wraps — the arithmetic must widen to size_t first.
  constexpr Index kPaperDim = 57344;  // 57K, a 7 km scene at 0.125 m pixels
  constexpr std::size_t kExpected = static_cast<std::size_t>(kPaperDim) *
                                    static_cast<std::size_t>(kPaperDim) *
                                    sizeof(CFloat);
  EXPECT_EQ(IncrementalAccumulator::batch_bytes(kPaperDim, kPaperDim),
            kExpected);
  EXPECT_GT(kExpected, std::size_t{1} << 34);  // really is beyond 32 bits
  // The paper's pipeline keeps Naccum = 36 such buffers resident (~948 GB
  // across the cluster); the per-batch figure must scale without wrapping.
  EXPECT_EQ(36u * IncrementalAccumulator::batch_bytes(kPaperDim, kPaperDim),
            36u * kExpected);
}

TEST(Accumulator, IncrementalEqualsMonolithicBackprojection) {
  // The paper's §2 linearity argument: backprojecting pulse batches
  // separately and summing equals backprojecting all pulses at once.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 30;
  const SmallScenario s = make_scenario(cfg);
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  const Backprojector driver(s.grid, opts);

  // Monolithic: all 30 pulses at once.
  const Grid2D<CFloat> monolithic = driver.form_image(s.history);

  // Incremental: three batches of 10 through the circular buffer.
  IncrementalAccumulator acc(s.grid.width(), s.grid.height(), 2);
  for (Index batch = 0; batch < 3; ++batch) {
    Grid2D<CFloat> img(s.grid.width(), s.grid.height());
    Region all{0, 0, s.grid.width(), s.grid.height()};
    driver.add_pulses_region(s.history, all, batch * 10, (batch + 1) * 10, img);
    acc.push(std::move(img));
  }
  EXPECT_GT(snr_db(acc.current(), monolithic), 100.0);
}

TEST(Accumulator, ShapeMismatchThrows) {
  IncrementalAccumulator acc(4, 4, 1);
  EXPECT_THROW(acc.push(Grid2D<CFloat>(3, 4)), PreconditionError);
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
  const AsrBreakdown b = measure_asr_breakdown(s.history, s.grid, all, 0,
                                               s.history.num_pulses(), 64, 64);
  EXPECT_GT(b.total_s, 0.0);
  EXPECT_GE(b.precompute_s, 0.0);
  EXPECT_NEAR(b.precompute_s + b.inner_s, b.total_s, 1e-9);
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
