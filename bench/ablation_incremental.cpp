// Ablation (paper §2): incremental backprojection via the circular batch
// buffer, bp::SlidingWindow. Backprojecting only the N new pulses and
// sliding the window's running image (add the newest batch image,
// subtract the evicted one) must beat re-backprojecting all (k+1)N pulses
// by ~k+1x, within the running sum's drift bound (linearity).
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backprojection/backprojector.h"
#include "backprojection/sliding_window.h"
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
    // Batch 0 is the one the timed frame evicts; the frame's image covers
    // batches 1..k+1.
    const Index total_pulses = static_cast<Index>(k + 2) * batch;
    auto scenario = bench::make_bench_scenario(image, total_pulses);
    const Region all{0, 0, image, image};
    const auto batch_image = [&](Index b) {
      auto img = std::make_shared<Grid2D<CFloat>>(image, image);
      bp::add_pulses_region(scenario.history, scenario.grid, options, all,
                            b * batch, (b + 1) * batch, *img);
      return img;
    };

    // Full recompute of the frame's (k+1)N-pulse image.
    Grid2D<CFloat> full(image, image);
    const bench::SampleStats full_stats = bench::run_repeated(spec, [&] {
      full = Grid2D<CFloat>(image, image);
      Timer t;
      bp::add_pulses_region(scenario.history, scenario.grid, options, all,
                            batch, total_pulses, full);
      return t.seconds();
    });

    // Batches 0..k precomputed once: in steady state the window already
    // holds them. The measured per-frame cost is one new batch, the
    // window's slide (one add, one subtract) and the frame's image copy.
    std::vector<bp::SlidingWindow::Partial> warm;
    for (Index b = 0; b <= k; ++b) warm.push_back(batch_image(b));
    Grid2D<CFloat> combined(image, image);
    const bench::SampleStats inc_stats = bench::run_repeated(spec, [&] {
      bp::SlidingWindow window(image, image, k + 1);
      for (const auto& img : warm) window.push(img);
      Timer t;
      window.push(batch_image(k + 1));
      combined = window.image();
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
