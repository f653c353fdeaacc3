// Ablation (§4.3, Fig. 6): dynamic x/y loop reordering. Paper: reordering
// cuts the input-pulse access time 42% on Xeon Phi by reducing the cache
// lines touched per gather; analytically, consecutive same-bin accesses
// rise from ~5 to ~17 in their geometry.
//
// Reports, per loop order: the measured locality statistics and the SIMD
// kernel time for a pulse whose wavefront favours one order.
#include <cstdio>

#include "backprojection/kernel.h"
#include "backprojection/locality.h"
#include "bench_util.h"
#include "common/timer.h"
#include "geometry/wavefront.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 512);
  const Index pulses = args.get("pulses", 48);
  const double oversample = args.getf("oversample", 24.0);

  // Oversampled ADC: In grows past the L1/L2 capacity so the gather spread
  // actually costs memory traffic (the paper's pulses are 81K samples —
  // bigger than any cache level on its hardware).
  auto scenario = bench::make_bench_scenario(
      image, pulses, sim::CollectionFidelity::kRandom, 20120615, oversample);
  const Region all{0, 0, image, image};

  bench::print_header("Ablation - dynamic loop reordering (Fig. 6)");
  std::printf("samples per pulse: %lld (%.0f KiB per SoA plane)\n",
              static_cast<long long>(scenario.history.samples_per_pulse()),
              static_cast<double>(scenario.history.samples_per_pulse()) * 4 /
                  1024.0);

  const geometry::LoopOrder good = geometry::choose_loop_order(
      scenario.history.meta(0).position, scenario.grid.centre());
  const geometry::LoopOrder bad = good == geometry::LoopOrder::kXInner
                                      ? geometry::LoopOrder::kYInner
                                      : geometry::LoopOrder::kXInner;

  // Analytic expectation (paper's 5 -> 17 analysis for its geometry).
  const double dr = scenario.history.bin_spacing();
  const double exp_good = geometry::expected_consecutive_same_bin(
      scenario.history.meta(0).position, scenario.grid, dr, good);
  const double exp_bad = geometry::expected_consecutive_same_bin(
      scenario.history.meta(0).position, scenario.grid, dr, bad);

  // Empirical measurement over the actual traversal.
  const auto with = bp::measure_gather_locality(scenario.history,
                                                scenario.grid, all, 0, good);
  const auto without = bp::measure_gather_locality(scenario.history,
                                                   scenario.grid, all, 0, bad);

  std::printf("\n%-26s %16s %16s\n", "", "reordered", "fixed order");
  bench::print_rule();
  std::printf("%-26s %16.1f %16.1f\n", "analytic same-bin run", exp_good,
              exp_bad);
  std::printf("%-26s %16.1f %16.1f\n", "measured same-bin run",
              with.mean_run_length, without.mean_run_length);
  std::printf("%-26s %16.2f %16.2f\n", "cache lines / 16-gather",
              with.cache_lines_per_gather, without.cache_lines_per_gather);

  // Kernel time under each order (SIMD path: where gather locality matters).
  auto time_kernel = [&](geometry::LoopOrder order) {
    bp::SoaTile tile(image, image);
    Timer timer;
    bp::backproject_asr_simd(scenario.history, scenario.grid, all, 0, pulses,
                             64, 64, order, tile);
    return timer.seconds();
  };
  const double t_good = time_kernel(good);
  const double t_bad = time_kernel(bad);
  std::printf("%-26s %15.3fs %15.3fs\n", "ASR SIMD kernel time", t_good,
              t_bad);
  std::printf("\nmeasured reordering speedup on this host: %.2fx\n",
              t_bad / t_good);
  // Knights Corner issued gathers one cache line per cycle, so its
  // pulse-access cost is proportional to the lines touched per gather —
  // exactly the quantity reordering improves. Project that cost model:
  std::printf("KNC gather-cost model (cycles ~ lines/gather): access time "
              "x%.2f, i.e. -%.0f%% (paper: -42%%)\n",
              with.cache_lines_per_gather / without.cache_lines_per_gather,
              100.0 * (1.0 - with.cache_lines_per_gather /
                                 without.cache_lines_per_gather));
  std::printf("(the SIMD sweep loads one window per vector when its lanes' "
              "bins fit one, and gathers lane by lane otherwise: the "
              "reordered traversal's vectors fit, the fixed order's do not, "
              "so the measured speedup is the same locality on this host)\n");
  return 0;
}
