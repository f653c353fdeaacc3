// Tile-executor scaling bench: one backprojection job decomposed into one
// task per ASR block (exec::make_backprojection_group), run through the
// work-stealing TileExecutor while sweeping worker count, job size, and
// steal on/off.
//
// steal=off is the serial baseline: the whole group runs on the worker
// that injected it (exactly the pre-executor service behaviour, one job
// per core). steal=on lets every idle worker, and the thread calling
// run(), converge on the job, so the steal-on/steal-off ratio at each
// worker count is the intra-job speedup the executor buys. Parity with
// one serial kernel call is asserted bit-exactly in tests/test_exec.cpp;
// this bench only measures time.
//
//   exec_scaling [--ix 96,160 --pulses 48 --block 32 --workers 1,2,4
//                 --warmup 1 --repeat 3 --json out.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/grid2d.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "exec/formation_tasks.h"

namespace {

using namespace sarbp;

std::vector<Index> parse_index_list(const std::string& spec,
                                    std::vector<Index> fallback) {
  std::vector<Index> values;
  std::string current;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!current.empty()) values.push_back(std::atol(current.c_str()));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return values.empty() ? fallback : values;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::vector<Index> images =
      parse_index_list(args.gets("ix"), {96, 160});
  const std::vector<Index> workers_list =
      parse_index_list(args.gets("workers"), {1, 2, 4});
  const Index pulses = args.get("pulses", 48);
  const Index block = args.get("block", 32);
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("exec_scaling", spec);

  bench::print_header(
      "tile-executor scaling: workers x job size x steal on/off");
  std::printf("pulses %lld, ASR block %lld, warmup %d, repeat %d\n",
              static_cast<long long>(pulses), static_cast<long long>(block),
              spec.warmup, spec.repeat);
  bench::print_rule();
  std::printf("%6s %8s %6s %11s %11s %8s %8s\n", "image", "workers", "steal",
              "median s", "iqr s", "tasks", "speedup");
  bench::print_rule();

  for (const Index image : images) {
    const auto scenario =
        bench::make_bench_scenario(image, pulses);
    bp::BackprojectOptions options;
    options.kernel = bp::KernelKind::kAsrScalar;
    options.asr_block_w = block;
    options.asr_block_h = block;

    for (const Index workers : workers_list) {
      double serial_median = 0.0;
      for (const bool steal : {false, true}) {
        std::size_t tasks = 0;
        const auto sample = [&]() -> double {
          Grid2D<CFloat> out(scenario.grid.width(), scenario.grid.height());
          exec::ExecOptions exec_options;
          exec_options.workers = static_cast<int>(workers);
          exec_options.steal = steal;
          obs::Registry registry;
          exec_options.metrics = &registry;
          exec::TileExecutor executor(std::move(exec_options));
          auto group = exec::make_backprojection_group(
              scenario.history, scenario.grid, options, out);
          Timer timer;
          executor.run(group);
          const double seconds = timer.seconds();
          tasks = registry.counter("exec.tasks.run").value();
          return seconds;
        };
        const bench::SampleStats stats = bench::run_repeated(spec, sample);
        if (!steal) serial_median = stats.median;
        const double speedup =
            steal && stats.median > 0.0 ? serial_median / stats.median : 1.0;
        std::printf("%6lld %8lld %6s %11.5f %11.5f %8zu %7.2fx\n",
                    static_cast<long long>(image),
                    static_cast<long long>(workers), steal ? "on" : "off",
                    stats.median, stats.iqr(), tasks, speedup);
        json.add("backprojection_job",
                 {{"image", std::to_string(image)},
                  {"workers", std::to_string(workers)},
                  {"steal", steal ? "on" : "off"},
                  {"pulses", std::to_string(pulses)},
                  {"tasks", std::to_string(tasks)}},
                 "seconds", stats);
      }
    }
    bench::print_rule();
  }
  return 0;
}
