// Reproduces paper Fig. 8: accuracy-performance trade-off of ASR vs block
// size, against a full-double-precision reference. Paper findings:
//   - baseline (double range + EP-accuracy trig): ~55 dB;
//   - libm trig instead: marginally better (~58 dB);
//   - single-precision range computation: collapses to ~12 dB;
//   - ASR beats the baseline's accuracy for blocks <= 64x64 while getting
//     faster as blocks grow (less precompute per pixel).
#include <cstdio>
#include <vector>

#include "asr/error_model.h"
#include "backprojection/kernel.h"
#include "bench_util.h"
#include "common/snr.h"
#include "common/timer.h"

namespace {

using namespace sarbp;

struct Row {
  std::string label;
  double snr_db;
  double seconds;
};

Grid2D<CFloat> tile_to_image(const bp::SoaTile& tile) {
  Grid2D<CFloat> img(tile.width(), tile.height());
  tile.accumulate_into(img, Region{0, 0, tile.width(), tile.height()});
  return img;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 256);
  const Index pulses = args.get("pulses", 64);

  auto scenario = bench::make_bench_scenario(image, pulses);
  const Region all{0, 0, image, image};

  bench::print_header("Fig. 8 - ASR accuracy-performance trade-off");
  std::printf("workload: %lldx%lld image, %lld pulses; reference: all-double kernel\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses));

  Grid2D<CDouble> reference(image, image);
  bp::backproject_ref(scenario.history, scenario.grid, all, 0, pulses,
                      reference);

  std::vector<Row> rows;
  auto run_float_kernel = [&](const std::string& label, auto&& kernel) {
    bp::SoaTile tile(image, image);
    Timer timer;
    kernel(tile);
    const double secs = timer.seconds();
    rows.push_back({label, snr_db(tile_to_image(tile), reference), secs});
  };

  run_float_kernel("baseline (double r, EP trig)", [&](bp::SoaTile& tile) {
    bp::backproject_baseline(scenario.history, scenario.grid, all, 0, pulses,
                             false, geometry::LoopOrder::kXInner, tile);
  });
  run_float_kernel("baseline (float r)", [&](bp::SoaTile& tile) {
    bp::backproject_baseline(scenario.history, scenario.grid, all, 0, pulses,
                             true, geometry::LoopOrder::kXInner, tile);
  });
  for (Index block : {16, 32, 64, 128, 256}) {
    if (block > image) continue;
    run_float_kernel("ASR " + std::to_string(block) + "x" + std::to_string(block),
                     [&](bp::SoaTile& tile) {
                       bp::backproject_asr_scalar(
                           scenario.history, scenario.grid, all, 0, pulses,
                           block, block, geometry::LoopOrder::kXInner, tile);
                     });
  }

  const double base_time = rows[0].seconds;
  const double base_snr = rows[0].snr_db;
  std::printf("\n%-30s %10s %12s %14s %12s\n", "variant", "SNR (dB)",
              "time (s)", "speedup vs base", "model (dB)");
  bench::print_rule();
  std::size_t asr_index = 0;
  for (const auto& row : rows) {
    char predicted[16] = "-";
    if (row.label.rfind("ASR", 0) == 0) {
      const Index block = Index{16} << asr_index++;
      const double floor_db = asr::predicted_snr_db(
          scenario.grid, scenario.history.meta(0).position,
          scenario.history.wavenumber(), block, block);
      std::snprintf(predicted, sizeof(predicted), ">%.0f", floor_db);
    }
    std::printf("%-30s %10.2f %12.4f %13.2fx %12s\n", row.label.c_str(),
                row.snr_db, row.seconds, base_time / row.seconds, predicted);
  }
  std::printf(
      "\npaper shape checks:\n"
      "  baseline ~55 dB (here %.1f dB); float-r baseline ~12 dB (here %.1f dB)\n",
      base_snr, rows[1].snr_db);
  // Locate the crossover block: largest block still at/above baseline SNR.
  Index crossover = 0;
  for (std::size_t i = 2; i < rows.size(); ++i) {
    if (rows[i].snr_db >= base_snr) {
      crossover = Index{16} << (i - 2);
    }
  }
  std::printf("  largest ASR block with accuracy >= baseline: %lld (paper: 64)\n",
              static_cast<long long>(crossover));
  return 0;
}
