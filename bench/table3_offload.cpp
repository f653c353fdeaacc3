// Reproduces paper Table 3: single-node backprojection throughput for a
// dual-socket Xeon, one Xeon Phi, and Xeon + 2 Xeon Phi.
//
// Paper:   Xeon 7.4 Gbp/s (1.0x, 42%), 1 Phi 14.0 (1.9x, 28%),
//          Xeon + 2 Phi 35.5 (4.8x, 30%).
// Here the coprocessors are device models anchored to the measured host
// kernel rate (DESIGN.md §2), so the *ratios* are the reproduction target.
// A frame is the batch driver's block group on the runtime's pool: the
// pool's workers and the calling thread sweep every executor's whole ASR
// blocks, and an executor's simulated time is the sum of its blocks'
// (OffloadRuntime), so a row's Gbp/s is per sweeping thread, as if one
// device ran its share. A row is the median (IQR) of per-frame throughput
// after the warm-up frames; the speedups are ratios of the medians. The
// model column shows the throughput the paper hardware implies.
//
//   table3_offload [--ix 384 --pulses 64 --warmup 2 --repeat 10
//                   --json out.json]
#include <algorithm>
#include <cstdio>
#include <string>

#include "asr/block_plan.h"
#include "backprojection/kernel.h"
#include "bench_util.h"
#include "exec/executor.h"
#include "exec/offload_runtime.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  using namespace sarbp::offload;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 384);
  const Index pulses = args.get("pulses", 64);
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("table3_offload", spec);

  auto scenario = bench::make_bench_scenario(image, pulses);
  const bp::BackprojectOptions bp_opts;
  // The pool's workers (0 = all hardware threads) plus the calling thread,
  // at most one per task: make_backprojection_group runs one per block.
  const int workers = bp_opts.threads > 0 ? bp_opts.threads
                                          : cpu_info().hardware_threads;
  const std::size_t sweeping = std::min(
      static_cast<std::size_t>(workers) + 1,
      std::min(asr::plan_blocks(0, 0, image, image, bp_opts.asr_block_w,
                                bp_opts.asr_block_h)
                   .size(),
               exec::kDequeCapacity));

  bench::print_header("Table 3 - single-node backprojection throughput");
  std::printf("workload: %lldx%lld image, %lld pulses; device models anchored "
              "to measured host rate\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses));
  std::printf("sweeping threads: %zu (%d pool workers + the caller); "
              "warmup %d, repeat %d frames per configuration\n",
              sweeping, workers, spec.warmup, spec.repeat);

  struct ConfigRow {
    const char* label;
    const char* paper_gbps;
    const char* paper_speedup;
    const char* paper_eff;
    OffloadConfig config;
    double model_gbps;  // what the specs alone imply
  };
  const double xeon_eff = xeon_e5_2670_dual().effective_gflops();
  const double knc_eff = knights_corner().effective_gflops();
  const double per_bp = bp::kFlopsPerBackprojection;

  OffloadConfig xeon_only;
  OffloadConfig knc_only;
  knc_only.use_host_compute = false;
  knc_only.coprocessors = {knights_corner()};
  OffloadConfig combined;
  combined.coprocessors = {knights_corner(), knights_corner()};

  const ConfigRow rows[] = {
      {"Xeon (2-socket)", "7.4", "1.0x", "42%", xeon_only,
       xeon_eff / per_bp},
      {"1 Xeon Phi", "14.0", "1.9x", "28%", knc_only, knc_eff / per_bp},
      {"Xeon + 2 Xeon Phi", "35.5", "4.8x", "30%", combined,
       (xeon_eff + 2 * knc_eff) / per_bp},
  };

  bench::SampleStats measured[3];
  for (int i = 0; i < 3; ++i) {
    OffloadRuntime runtime(scenario.grid, bp_opts, rows[i].config);
    Grid2D<CFloat> out(image, image);
    measured[i] = bench::run_repeated(spec, [&] {
      out.fill(CFloat{});
      return runtime.form_image(scenario.history, out).throughput_bp_per_s();
    });
  }

  std::printf("\n%-20s | %8s %8s %5s | %14s %10s %8s | %11s\n",
              "configuration", "paper", "speedup", "eff", "median Gbp/s",
              "iqr Gbp/s", "speedup", "model Gbp/s");
  bench::print_rule();
  for (int i = 0; i < 3; ++i) {
    const double speedup = measured[i].median / measured[0].median;
    std::printf("%-20s | %8s %8s %5s | %14.3f %10.3f %7.2fx | %11.1f\n",
                rows[i].label, rows[i].paper_gbps, rows[i].paper_speedup,
                rows[i].paper_eff, measured[i].median / 1e9,
                measured[i].iqr() / 1e9, speedup, rows[i].model_gbps);
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.4f", speedup);
    json.add("throughput",
             {{"configuration", rows[i].label},
              {"image", std::to_string(image)},
              {"pulses", std::to_string(pulses)},
              {"threads", std::to_string(workers)},
              {"sweeping_threads", std::to_string(sweeping)},
              {"speedup_of_medians", ratio}},
             "bp/s", measured[i]);
  }
  std::printf("\n(the model column is peak x efficiency / 38 FLOP, i.e. the\n"
              " paper-hardware throughput the Table 3 efficiencies imply;\n"
              " its speedups are %.2fx and %.2fx)\n",
              knc_eff / xeon_eff, (xeon_eff + 2 * knc_eff) / xeon_eff);
  return 0;
}
