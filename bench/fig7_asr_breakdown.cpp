// Reproduces paper Fig. 7: backprojection execution-time breakdown before
// and after approximate strength reduction. The paper reports, on a scaled
// 3K x 3K / 2,809-pulse workload:
//   - before ASR, double-precision square roots dominate, and 40% of the
//     sin/cos time is argument reduction;
//   - ASR removes sqrt/sin/cos from the inner loop with small precompute
//     overhead, for 2.2x (Xeon) / 3.9x (Xeon Phi) kernel speedups.
// Both ASR kernels split into table precompute (the production table
// build, vectorized one table per lane) and the sweep, timed in one pass.
#include <cstdio>

#include "backprojection/breakdown.h"
#include "backprojection/kernel.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 384);
  const Index pulses = args.get("pulses", 96);
  const Index block = args.get("block", 64);

  auto scenario = bench::make_bench_scenario(image, pulses);
  const Region all{0, 0, image, image};
  const double backprojections =
      static_cast<double>(image) * static_cast<double>(image) *
      static_cast<double>(pulses);

  bench::print_header("Fig. 7 - ASR execution-time breakdown (single thread)");
  std::printf("workload: %lldx%lld image, %lld pulses, %lld samples/pulse\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses),
              static_cast<long long>(scenario.history.samples_per_pulse()));

  const bp::BaselineBreakdown base = bp::measure_baseline_breakdown(
      scenario.history, scenario.grid, all, 0, pulses);
  std::printf("\nbaseline kernel (Fig. 3(a)): %.3f s total  (%.1f Mbp/s)\n",
              base.total_s, backprojections / base.total_s / 1e6);
  bench::print_rule();
  auto pct = [&](double v) { return 100.0 * v / base.total_s; };
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "sqrt (double range)",
              base.sqrt_s, pct(base.sqrt_s));
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "argument reduction (double)",
              base.argred_s, pct(base.argred_s));
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "sin/cos polynomials",
              base.sincos_s, pct(base.sincos_s));
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "pulse access + interp",
              base.interp_s, pct(base.interp_s));
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "other (loop/position)",
              base.other_s, pct(base.other_s));
  std::printf("  argument reduction is %.0f%% of trig time (paper: ~40%%)\n",
              100.0 * base.argred_s / (base.trig_s() > 0 ? base.trig_s() : 1));

  const bp::AsrBreakdown asr = bp::measure_asr_breakdown(
      scenario.history, scenario.grid, all, 0, pulses, block, block);
  std::printf("\nASR scalar kernel (Fig. 3(b), %lldx%lld blocks): %.3f s total  (%.1f Mbp/s)\n",
              static_cast<long long>(block), static_cast<long long>(block),
              asr.total_s, backprojections / asr.total_s / 1e6);
  bench::print_rule();
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "table precompute (A..Psi)",
              asr.precompute_s, 100.0 * asr.precompute_s / asr.total_s);
  std::printf("  %-28s %8.3f s  %5.1f %%\n", "strength-reduced inner loop",
              asr.inner_s, 100.0 * asr.inner_s / asr.total_s);

  // SIMD ASR for the full after-picture, with the same split.
  double simd_s = 0.0;
  if (bp::asr_simd_available()) {
    const bp::AsrBreakdown simd = bp::measure_asr_breakdown(
        scenario.history, scenario.grid, all, 0, pulses, block, block,
        bp::SimdIsa::kAuto);
    simd_s = simd.total_s;
    std::printf("\nASR SIMD kernel (%d-wide): %.3f s total  (%.1f Mbp/s)\n",
                bp::asr_simd_width(), simd_s,
                backprojections / simd_s / 1e6);
    bench::print_rule();
    std::printf("  %-28s %8.3f s  %5.1f %%\n", "table precompute (A..Psi)",
                simd.precompute_s, 100.0 * simd.precompute_s / simd_s);
    std::printf("  %-28s %8.3f s  %5.1f %%\n", "strength-reduced inner loop",
                simd.inner_s, 100.0 * simd.inner_s / simd_s);
  }

  std::printf("\nspeedups from ASR:\n");
  bench::print_rule();
  std::printf("  scalar baseline -> scalar ASR : %.2fx   (paper Xeon: 2.2x)\n",
              base.total_s / asr.total_s);
  if (simd_s > 0.0) {
    std::printf("  scalar baseline -> SIMD ASR   : %.2fx\n",
                base.total_s / simd_s);
  }
  return 0;
}
