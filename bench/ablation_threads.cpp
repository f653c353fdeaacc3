// Ablation (§5.2.2): thread scaling of the batch backprojection driver
// (exec::Backprojector: its tile-executor pool of `threads` workers plus
// the calling thread). Paper: near-linear 15.9x on 16 Xeon cores,
// super-linear 63x on 60 Phi cores (working set per core shrinks into
// cache), SMT 1.2x/2.2x.
//
// Speedups saturate at the host's hardware thread count (printed first);
// rows beyond it still exercise the partitioning/reduction machinery and
// report the partition chosen.
#include <cstdio>

#include "backprojection/partition.h"
#include "bench_util.h"
#include "common/timer.h"
#include "exec/formation_tasks.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 256);
  const Index pulses = args.get("pulses", 48);

  auto scenario = bench::make_bench_scenario(image, pulses);

  bench::print_header("Ablation - batch driver thread scaling");
  std::printf("hardware threads available: %d (paper: 16 Xeon cores / 60 Phi "
              "cores)\n\n",
              cpu_info().hardware_threads);
  std::printf("%8s %10s %10s %9s %24s\n", "threads", "time (s)", "Gbp/s",
              "speedup", "partition (x*y*pulse)");
  bench::print_rule();

  const double work = static_cast<double>(image) * static_cast<double>(image) *
                      static_cast<double>(pulses);
  double base = 0.0;
  for (int threads : {1, 2, 4, 8, 16}) {
    bp::BackprojectOptions options;
    options.threads = threads;
    const exec::Backprojector driver(scenario.grid, options);
    // Warm-up + timed run.
    (void)driver.form_image(scenario.history);
    Timer timer;
    (void)driver.form_image(scenario.history);
    const double secs = timer.seconds();
    if (threads == 1) base = secs;
    const bp::CubeShape shape{pulses, image, image};
    const auto choice = bp::choose_partition(shape, threads,
                                             options.min_region_edge);
    std::printf("%8d %10.3f %10.3f %8.2fx %15lldx%lldx%lld\n", threads, secs,
                work / secs / 1e9, base / secs,
                static_cast<long long>(choice.parts_x),
                static_cast<long long>(choice.parts_y),
                static_cast<long long>(choice.parts_pulse));
  }
  return 0;
}
