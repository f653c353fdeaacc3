// Ablation (paper §2): incremental backprojection via the circular batch
// buffer. Backprojecting only the N new pulses and summing k+1 stored
// batch images must beat re-backprojecting all (k+1)N pulses by ~k+1x,
// at identical output (linearity).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "backprojection/accumulator.h"
#include "backprojection/backprojector.h"
#include "bench_util.h"
#include "common/snr.h"
#include "common/timer.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 192);
  const Index batch = args.get("pulses", 24);  // N: new pulses per image
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("ablation_incremental", spec);

  bench::print_header("Ablation - incremental backprojection (circular buffer)");
  std::printf("image %lldx%lld, N = %lld new pulses per frame, "
              "warmup %d, repeat %d\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(batch), spec.warmup, spec.repeat);
  std::printf("\n%4s %18s %18s %9s %12s\n", "k", "recompute (s)",
              "incremental (s)", "speedup", "SNR (dB)");
  bench::print_rule();

  bp::BackprojectOptions options;

  for (int k : {1, 2, 4, 8}) {
    const Index total_pulses = static_cast<Index>(k + 1) * batch;
    auto scenario = bench::make_bench_scenario(image, total_pulses);
    const Region all{0, 0, image, image};

    // Full recompute of the (k+1)N-pulse image.
    Grid2D<CFloat> full(image, image);
    const bench::SampleStats full_stats = bench::run_repeated(spec, [&] {
      full = Grid2D<CFloat>(image, image);
      Timer t;
      bp::add_pulses_region(scenario.history, scenario.grid, options, all, 0,
                            total_pulses, full);
      return t.seconds();
    });

    // Batches 0..k-1 precomputed once — in steady state they are already
    // in the buffer; the measured per-frame cost is one new batch plus
    // the buffer re-sum.
    std::vector<Grid2D<CFloat>> warm;
    warm.reserve(static_cast<std::size_t>(k));
    for (int b = 0; b < k; ++b) {
      Grid2D<CFloat> img(image, image);
      bp::add_pulses_region(scenario.history, scenario.grid, options, all,
                            b * batch, (b + 1) * batch, img);
      warm.push_back(std::move(img));
    }
    Grid2D<CFloat> combined(image, image);
    const bench::SampleStats inc_stats = bench::run_repeated(spec, [&] {
      bp::IncrementalAccumulator acc(image, image, k);
      for (const auto& img : warm) acc.push(Grid2D<CFloat>(img));
      Timer t;
      Grid2D<CFloat> newest(image, image);
      bp::add_pulses_region(scenario.history, scenario.grid, options, all,
                            k * batch, (k + 1) * batch, newest);
      acc.push(std::move(newest));
      combined = Grid2D<CFloat>(image, image);
      acc.current_into(combined);
      return t.seconds();
    });

    std::printf("%4d %18.3f %18.3f %8.2fx %12.1f\n", k, full_stats.median,
                inc_stats.median, full_stats.median / inc_stats.median,
                snr_db(combined, full));
    const std::vector<std::pair<std::string, std::string>> params = {
        {"image", std::to_string(image)},
        {"batch", std::to_string(batch)},
        {"k", std::to_string(k)}};
    json.add("recompute", params, "s", full_stats);
    json.add("incremental", params, "s", inc_stats);
  }
  std::printf("\n(paper: k = 34 in the high-end scenario — a 34x compute cut "
              "for 9.5x the image memory)\n");
  return 0;
}
