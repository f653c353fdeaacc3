// Offload-model tests: device specs, the async transfer engine, the
// runtime's correctness (offloaded image == plain image), split adaptation,
// transfer overlap accounting, and the Table 3 throughput-ratio shape.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "common/snr.h"
#include "offload/device.h"
#include "offload/runtime.h"
#include "offload/transfer.h"
#include "test_helpers.h"

namespace sarbp::offload {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

TEST(Device, PaperSpecsEncodeTable2And3) {
  const DeviceSpec xeon = xeon_e5_2670_dual();
  EXPECT_TRUE(xeon.is_host);
  EXPECT_DOUBLE_EQ(xeon.peak_gflops, 660.0);
  EXPECT_NEAR(xeon.effective_gflops(), 277.2, 0.1);
  const DeviceSpec knc = knights_corner();
  EXPECT_FALSE(knc.is_host);
  EXPECT_DOUBLE_EQ(knc.peak_gflops, 1920.0);
  EXPECT_NEAR(knc.effective_gflops(), 537.6, 0.1);
  // Table 3: one KNC ~ 1.9x a dual-socket Xeon at backprojection.
  EXPECT_NEAR(knc.effective_gflops() / xeon.effective_gflops(), 1.9, 0.1);
}

TEST(Device, ValidateRejectsNonsense) {
  DeviceSpec bad = knights_corner();
  bad.flop_efficiency = 0.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = knights_corner();
  bad.pcie_gbps = 0.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

TEST(Transfer, CopiesBytesAndReportsModeledTime) {
  AsyncTransferEngine engine(6.0);
  std::vector<std::byte> src(1 << 20);
  std::vector<std::byte> dst(1 << 20);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 31u);
  }
  TransferHandle handle = engine.submit(src, dst);
  const double seconds = handle.wait();
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
  EXPECT_NEAR(seconds, static_cast<double>(src.size()) / 6e9, 1e-12);
}

TEST(Transfer, MultipleInFlightTransfersComplete) {
  AsyncTransferEngine engine(1.0, 2);
  constexpr int kN = 16;
  std::vector<std::vector<std::byte>> srcs(kN), dsts(kN);
  std::vector<TransferHandle> handles;
  for (int i = 0; i < kN; ++i) {
    srcs[static_cast<std::size_t>(i)].assign(4096, static_cast<std::byte>(i));
    dsts[static_cast<std::size_t>(i)].resize(4096);
    handles.push_back(engine.submit(srcs[static_cast<std::size_t>(i)],
                                    dsts[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < kN; ++i) {
    handles[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(dsts[static_cast<std::size_t>(i)][0], static_cast<std::byte>(i));
  }
}

TEST(Transfer, SizeMismatchThrows) {
  AsyncTransferEngine engine(1.0);
  std::vector<std::byte> src(8), dst(4);
  EXPECT_THROW((void)engine.submit(src, dst), PreconditionError);
}

class OffloadRuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Large enough that per-executor regions run for milliseconds —
    // sub-millisecond regions are dominated by fixed overheads and timer
    // noise, which destabilizes the observed-rate adaptation.
    ScenarioConfig cfg;
    cfg.image = 256;
    cfg.pulses = 48;
    cfg.fidelity = sim::CollectionFidelity::kRandom;
    scenario_ = new SmallScenario(make_scenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static OffloadConfig host_plus_two_knc() {
    OffloadConfig config;
    config.coprocessors = {knights_corner(), knights_corner()};
    return config;
  }

  static SmallScenario* scenario_;
};

SmallScenario* OffloadRuntimeTest::scenario_ = nullptr;

TEST_F(OffloadRuntimeTest, OffloadedImageMatchesPlainBackprojection) {
  const auto& s = *scenario_;
  bp::BackprojectOptions bp_opts;
  bp_opts.threads = 1;
  OffloadRuntime runtime(s.grid, bp_opts, host_plus_two_knc());
  Grid2D<CFloat> offloaded(s.grid.width(), s.grid.height());
  (void)runtime.form_image(s.history, offloaded);

  const bp::Backprojector plain(s.grid, bp_opts);
  const Grid2D<CFloat> expected = plain.form_image(s.history);
  // Row-strip partitioning changes ASR block placement, so agreement is at
  // approximation (not rounding) level.
  EXPECT_GT(snr_db(offloaded, expected), 55.0);
}

TEST_F(OffloadRuntimeTest, SplitConvergesTowardEffectiveRates) {
  const auto& s = *scenario_;
  bp::BackprojectOptions bp_opts;
  bp_opts.threads = 1;
  OffloadRuntime runtime(s.grid, bp_opts, host_plus_two_knc());
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  for (int frame = 0; frame < 6; ++frame) {
    out.fill(CFloat{});
    (void)runtime.form_image(s.history, out);
  }
  const auto& split = runtime.current_split();
  ASSERT_EQ(split.size(), 3u);
  // Expected fractions from effective rates: 277 : 538 : 538. The loose
  // tolerance absorbs the timing noise of a shared single-core machine;
  // the structural property is host < device and device ~ device.
  EXPECT_NEAR(split[0], 277.2 / 1352.4, 0.13);
  EXPECT_NEAR(split[1], 537.6 / 1352.4, 0.13);
  EXPECT_NEAR(split[2], 537.6 / 1352.4, 0.13);
  EXPECT_LT(split[0], split[1]);
  EXPECT_LT(split[0], split[2]);
}

TEST_F(OffloadRuntimeTest, Table3ThroughputRatios) {
  // The Table 3 shape: 1 KNC ~ 1.9x the dual Xeon; Xeon + 2 KNC ~ 4.8x.
  const auto& s = *scenario_;
  bp::BackprojectOptions bp_opts;
  bp_opts.threads = 1;

  auto run = [&](OffloadConfig config) {
    OffloadRuntime runtime(s.grid, bp_opts, std::move(config));
    Grid2D<CFloat> out(s.grid.width(), s.grid.height());
    // Two settle frames for the split adaptation, then best-of-4: scheduler
    // interference on a shared core only ever *lowers* a frame's measured
    // throughput, so the max is the noise-robust estimate.
    double best = 0.0;
    for (int frame = 0; frame < 6; ++frame) {
      out.fill(CFloat{});
      const OffloadReport report = runtime.form_image(s.history, out);
      if (frame >= 2) best = std::max(best, report.throughput_bp_per_s());
    }
    return best;
  };

  // Process-level warmup: the very first frames after startup pay cold
  // caches/page faults and depress whichever config is measured first,
  // which showed up as a flaky inflated knc/xeon ratio. One discarded
  // pass levels the field before any ratio is formed.
  (void)run(OffloadConfig{});

  OffloadConfig xeon_only;
  const double xeon = run(xeon_only);

  OffloadConfig knc_only;
  knc_only.use_host_compute = false;
  knc_only.coprocessors = {knights_corner()};
  const double knc = run(knc_only);

  const double combined = run(host_plus_two_knc());

  // Single-core container timing is too noisy for tight factors; assert
  // the Table 3 *ordering* and coarse magnitudes (paper: 1.9x and 4.8x).
  // The table3_offload bench reports the precise model-anchored numbers.
  EXPECT_GT(knc, xeon);
  EXPECT_GT(combined, knc);
  EXPECT_NEAR(knc / xeon, 1.9, 0.7);
  EXPECT_NEAR(combined / xeon, 4.8, 2.3);
}

TEST_F(OffloadRuntimeTest, TransferOverlapHidesWireTime) {
  const auto& s = *scenario_;
  bp::BackprojectOptions bp_opts;
  bp_opts.threads = 1;

  OffloadConfig overlapped = host_plus_two_knc();
  overlapped.overlap_transfers = true;
  OffloadConfig serialized = host_plus_two_knc();
  serialized.overlap_transfers = false;

  OffloadRuntime r1(s.grid, bp_opts, overlapped);
  OffloadRuntime r2(s.grid, bp_opts, serialized);
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  const OffloadReport a = r1.form_image(s.history, out);
  out.fill(CFloat{});
  const OffloadReport b = r2.form_image(s.history, out);
  EXPECT_GT(a.transfer_seconds, 0.0);
  // Overlapped wall = max(compute, transfer); serialized = compute + transfer.
  const double a_compute = *std::max_element(a.executor_seconds.begin(),
                                             a.executor_seconds.end());
  const double b_compute = *std::max_element(b.executor_seconds.begin(),
                                             b.executor_seconds.end());
  EXPECT_DOUBLE_EQ(a.wall_seconds, std::max(a_compute, a.transfer_seconds));
  EXPECT_DOUBLE_EQ(b.wall_seconds, b_compute + b.transfer_seconds);
}

TEST_F(OffloadRuntimeTest, ReportAccountsBackprojections) {
  const auto& s = *scenario_;
  bp::BackprojectOptions bp_opts;
  bp_opts.threads = 1;
  OffloadRuntime runtime(s.grid, bp_opts, host_plus_two_knc());
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  const OffloadReport report = runtime.form_image(s.history, out);
  EXPECT_DOUBLE_EQ(report.backprojections,
                   static_cast<double>(s.grid.width() * s.grid.height() *
                                       s.history.num_pulses()));
  EXPECT_EQ(report.executor_seconds.size(), 3u);
  EXPECT_EQ(report.split.size(), 3u);
}

TEST_F(OffloadRuntimeTest, StagingCopyOverlapsWithCompute) {
  // The offload_transfer/offload_wait analogue: the real staging memcpy
  // runs on the I/O thread while executors compute, so the compute
  // thread's wait at the end is a small fraction of the frame.
  const auto& s = *scenario_;
  bp::BackprojectOptions bp_opts;
  bp_opts.threads = 1;
  OffloadRuntime runtime(s.grid, bp_opts, host_plus_two_knc());
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  const OffloadReport report = runtime.form_image(s.history, out);
  const double compute = *std::max_element(report.executor_seconds.begin(),
                                           report.executor_seconds.end());
  EXPECT_LT(report.staging_wait_seconds, 0.5 * compute);
}

TEST(OffloadRuntime, NoStagingWithoutCoprocessors) {
  geometry::ImageGrid grid(64, 64, 0.5);
  OffloadConfig config;  // host only
  OffloadRuntime runtime(grid, {}, config);
  sim::PhaseHistory history(4, 128, 0.5, 64.0);
  for (Index p = 0; p < history.num_pulses(); ++p) {
    history.meta(p).position = {40000.0, static_cast<double>(p), 8000.0};
    history.meta(p).start_range_m = 40750.0;
  }
  Grid2D<CFloat> out(64, 64);
  const OffloadReport report = runtime.form_image(history, out);
  EXPECT_DOUBLE_EQ(report.staging_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.transfer_seconds, 0.0);
}

TEST(OffloadRuntime, NoExecutorsThrows) {
  geometry::ImageGrid grid(32, 32, 1.0);
  OffloadConfig config;
  config.use_host_compute = false;
  EXPECT_THROW(OffloadRuntime(grid, {}, config), PreconditionError);
}

}  // namespace
}  // namespace sarbp::offload
