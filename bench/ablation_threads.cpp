// Ablation (§5.2.2): thread scaling of the batch backprojection driver
// (exec::Backprojector: its tile-executor pool of `threads` workers plus
// the calling thread, one task per ASR block). Paper: near-linear 15.9x on
// 16 Xeon cores, super-linear 63x on 60 Phi cores (working set per core
// shrinks into cache), SMT 1.2x/2.2x. The `sweeping` column is the threads
// that sweep: the pool's workers plus the calling thread, at most one per
// task; the speedup is against the `threads = 1` row, which sweeps on two.
//
// Speedups saturate at the host's hardware thread count (printed first);
// rows beyond it still run the driver's pool and report its task count.
// A row is the median (IQR) of the timed form_image calls.
//
//   ablation_threads [--ix 256 --pulses 48 --warmup 1 --repeat 5
//                     --json out.json]
#include <algorithm>
#include <cstdio>
#include <string>

#include "asr/block_plan.h"
#include "bench_util.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "exec/formation_tasks.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 256);
  const Index pulses = args.get("pulses", 48);
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("ablation_threads", spec);

  auto scenario = bench::make_bench_scenario(image, pulses);
  const bp::BackprojectOptions defaults;
  // make_backprojection_group's fan-out: one task per block.
  const std::size_t tasks = std::min(
      asr::plan_blocks(0, 0, image, image, defaults.asr_block_w,
                       defaults.asr_block_h)
          .size(),
      exec::kDequeCapacity);

  bench::print_header("Ablation - batch driver thread scaling");
  std::printf("hardware threads available: %d (paper: 16 Xeon cores / 60 Phi "
              "cores); warmup %d, repeat %d\n\n",
              cpu_info().hardware_threads, spec.warmup, spec.repeat);
  std::printf("%8s %9s %11s %11s %10s %9s %8s\n", "threads", "sweeping",
              "median s", "iqr s", "Gbp/s", "speedup", "tasks");
  bench::print_rule();

  const double work = static_cast<double>(image) * static_cast<double>(image) *
                      static_cast<double>(pulses);
  double base = 0.0;
  for (int threads : {1, 2, 4, 8, 16}) {
    bp::BackprojectOptions options;
    options.threads = threads;
    const exec::Backprojector driver(scenario.grid, options);
    const bench::SampleStats stats = bench::run_repeated(spec, [&] {
      const Timer timer;
      (void)driver.form_image(scenario.history);
      return timer.seconds();
    });
    if (threads == 1) base = stats.median;
    const std::size_t sweeping =
        std::min(static_cast<std::size_t>(threads) + 1, tasks);
    std::printf("%8d %9zu %11.5f %11.5f %10.3f %8.2fx %8zu\n", threads,
                sweeping, stats.median, stats.iqr(), work / stats.median / 1e9,
                base / stats.median, tasks);
    json.add("form_image",
             {{"image", std::to_string(image)},
              {"pulses", std::to_string(pulses)},
              {"threads", std::to_string(threads)},
              {"sweeping_threads", std::to_string(sweeping)},
              {"tasks", std::to_string(tasks)}},
             "seconds", stats);
  }
  return 0;
}
