// Extension experiment (paper §6/§7): hierarchical (fast factorized)
// backprojection on top of the ASR base case — "when combined with
// hierarchical backprojection techniques, we believe our optimizations
// will render computationally challenging SAR imaging via backprojection
// considerably more affordable."
//
// Sweeps the pulse-group size and reports wall time, the work-model
// prediction, and image SNR against direct ASR backprojection. Every time
// is the median of the timed calls (--warmup untimed ones first), so no
// row is one cold call.
//
//   ext_ffbp [--ix 256 --pulses 1024 --warmup 1 --repeat 5 --json out.json]
#include <cstdio>
#include <string>

#include "backprojection/ffbp.h"
#include "bench_util.h"
#include "common/snr.h"
#include "common/timer.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 256);
  const Index pulses = args.get("pulses", 1024);
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("ext_ffbp", spec);

  bench::print_header("Extension - fast factorized backprojection (ASR base case)");
  auto scenario = bench::make_bench_scenario(
      image, pulses, sim::CollectionFidelity::kIdealResponse);
  std::printf("workload: %lldx%lld image, %lld pulses; warmup %d, repeat "
              "%d\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses), spec.warmup, spec.repeat);

  // Direct production path for timing; the quality reference uses the
  // same upsampled data FFBP consumes, so SNR isolates FFBP's own
  // approximation.
  const Region all{0, 0, image, image};
  const bench::SampleStats direct_stats = bench::run_repeated(spec, [&] {
    bp::SoaTile tile(image, image);
    const Timer timer;
    bp::backproject_asr_simd(scenario.history, scenario.grid, all, 0, pulses,
                             64, 64, geometry::LoopOrder::kXInner, tile);
    return timer.seconds();
  });
  const double direct_s = direct_stats.median;
  json.add("direct_asr",
           {{"image", std::to_string(image)},
            {"pulses", std::to_string(pulses)}},
           "seconds", direct_stats);
  Timer upsample_timer;
  const sim::PhaseHistory upsampled = scenario.history.upsampled(4);
  const double upsample_s = upsample_timer.seconds();
  Grid2D<CFloat> direct(image, image);
  {
    bp::SoaTile tile(image, image);
    bp::backproject_asr_simd(upsampled, scenario.grid, all, 0, pulses, 64, 64,
                             geometry::LoopOrder::kXInner, tile);
    tile.accumulate_into(direct, all);
  }
  std::printf("direct ASR backprojection: %.3f s (median); one-off range "
              "upsampling (amortized across frames): %.3f s\n",
              direct_s, upsample_s);

  std::printf("\n%8s %8s | %10s %9s %12s | %12s\n", "group", "tile",
              "time (s)", "speedup", "model frac", "SNR vs direct");
  bench::print_rule();
  for (const Index group : {1, 2, 4, 8, 16}) {
    bp::FfbpOptions options;
    options.group = group;
    options.tile = 64;
    Grid2D<CFloat> img(0, 0);
    const bench::SampleStats stats = bench::run_repeated(spec, [&] {
      const Timer timer;
      img = bp::ffbp_form_image_upsampled(upsampled, scenario.grid, options);
      return timer.seconds();
    });
    const double secs = stats.median;
    json.add("ffbp",
             {{"image", std::to_string(image)},
              {"pulses", std::to_string(pulses)},
              {"group", std::to_string(group)},
              {"tile", std::to_string(options.tile)}},
             "seconds", stats);
    const double dr_syn = scenario.history.bin_spacing() /
                          static_cast<double>(options.oversample);
    const double margin_m =
        0.707 * static_cast<double>(options.tile) * scenario.grid.spacing() +
        static_cast<double>(options.range_margin_bins) * dr_syn;
    const double model = bp::ffbp_work_fraction(
        options, pulses, image, static_cast<Index>(2.0 * margin_m / dr_syn));
    std::printf("%8lld %8lld | %10.3f %8.2fx %12.2f | %10.1f dB\n",
                static_cast<long long>(group),
                static_cast<long long>(options.tile), secs, direct_s / secs,
                model, snr_db(img, direct));
  }
  std::printf("\n(speedup approaches the group size once the per-tile "
              "combining pass amortizes; accuracy falls as group x tile "
              "grows — the same budget arithmetic as the ASR block size)\n");
  return 0;
}
