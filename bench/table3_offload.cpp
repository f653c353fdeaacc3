// Reproduces paper Table 3: single-node backprojection throughput for a
// dual-socket Xeon, one Xeon Phi, and Xeon + 2 Xeon Phi.
//
// Paper:   Xeon 7.4 Gbp/s (1.0x, 42%), 1 Phi 14.0 (1.9x, 28%),
//          Xeon + 2 Phi 35.5 (4.8x, 30%).
// Here the coprocessors are device models anchored to the measured host
// kernel rate (DESIGN.md §2), so the *ratios* and efficiencies are the
// reproduction target; absolute Gbp/s reflect one host thread, which runs
// every executor's rows in turn.
// The pure-model column shows the throughput the paper hardware implies.
#include <cstdio>

#include "backprojection/kernel.h"
#include "bench_util.h"
#include "exec/offload_runtime.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  using namespace sarbp::offload;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 384);
  const Index pulses = args.get("pulses", 64);
  const int frames = static_cast<int>(args.get("frames", 4));

  auto scenario = bench::make_bench_scenario(image, pulses);
  bp::BackprojectOptions bp_opts;

  bench::print_header("Table 3 - single-node backprojection throughput");
  std::printf("workload: %lldx%lld image, %lld pulses; device models anchored "
              "to measured host rate\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses));

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

  ConfigRow rows[] = {
      {"Xeon (2-socket)", "7.4", "1.0x", "42%", xeon_only,
       xeon_eff / per_bp},
      {"1 Xeon Phi", "14.0", "1.9x", "28%", knc_only, knc_eff / per_bp},
      {"Xeon + 2 Xeon Phi", "35.5", "4.8x", "30%", combined,
       (xeon_eff + 2 * knc_eff) / per_bp},
  };

  double measured[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    OffloadRuntime runtime(scenario.grid, bp_opts, rows[i].config);
    Grid2D<CFloat> out(image, image);
    OffloadReport report;
    for (int f = 0; f < frames; ++f) {
      out.fill(CFloat{});
      report = runtime.form_image(scenario.history, out);
    }
    measured[i] = report.throughput_bp_per_s();
  }

  std::printf("\n%-20s | %8s %8s %5s | %14s %8s | %11s\n", "configuration",
              "paper", "speedup", "eff", "measured Gbp/s", "speedup",
              "model Gbp/s");
  bench::print_rule();
  for (int i = 0; i < 3; ++i) {
    std::printf("%-20s | %8s %8s %5s | %14.3f %7.2fx | %11.1f\n",
                rows[i].label, rows[i].paper_gbps, rows[i].paper_speedup,
                rows[i].paper_eff, measured[i] / 1e9,
                measured[i] / measured[0], rows[i].model_gbps);
  }
  std::printf("\n(the model column is peak x efficiency / 38 FLOP, i.e. the\n"
              " paper-hardware throughput the Table 3 efficiencies imply)\n");
  return 0;
}
