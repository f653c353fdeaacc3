// Table 4 through the serving stack: weak scaling of the *sharded*
// formation service. The paper grows the image with the cluster so
// per-node work stays constant (1-16 nodes, efficiency 1.00 -> 0.93); here
// the image edge grows ~ sqrt(shards), block-aligned so the grid splitter
// cuts on ASR block boundaries, and every request flows through the full
// service path: admission -> weighted-fair claim -> shard router ->
// per-rank tile executor -> mailbox gather.
//
//   table4_service_scaling [--edge 96 --pulses 32 --block 16 --jobs 4
//                           --shards 1,2,4 --shard-workers 1
//                           --warmup 0 --repeat 1 --json out.json]
//
// This is the measured Table 4 (bench/table4_weak_scaling prints the
// analytic model). Rank threads share the host's cores with the front end
// and with each other, so per-shard efficiency is computed from the
// gathered critical path (`compute_seconds` is the max over shard parts),
// not from wall-clock speedup. Throughput is reported both as completed
// jobs/s (service view) and modeled Gbp/s = pixels x pulses / critical
// path (cluster view, every shard running in parallel).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "service/service.h"

namespace {

using namespace sarbp;

std::vector<int> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  std::string current;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!current.empty()) out.push_back(std::atoi(current.c_str()));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return out;
}

/// Smallest block multiple >= edge * sqrt(shards): weak scaling with cuts
/// that stay on plan-block boundaries.
Index scaled_edge(Index edge, int shards, Index block) {
  const double side = static_cast<double>(edge) *
                      std::sqrt(static_cast<double>(shards));
  const auto blocks = static_cast<Index>(
      std::ceil(side / static_cast<double>(block)));
  return std::max<Index>(1, blocks) * block;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const Index edge = args.get("edge", 96);
  const Index pulses = args.get("pulses", 32);
  const Index block = args.get("block", 16);
  const int jobs = static_cast<int>(args.get("jobs", 4));
  const int shard_workers = static_cast<int>(args.get("shard-workers", 1));
  std::vector<int> shard_counts = parse_int_list(args.gets("shards"));
  if (shard_counts.empty()) shard_counts = {1, 2, 4};
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("table4_service_scaling", spec);

  bench::print_header("Table 4 via the sharded formation service");
  std::printf("weak scaling: image edge ~ %lld x sqrt(shards) "
              "(block-aligned to %lld), %lld pulses, %d jobs/config\n",
              static_cast<long long>(edge), static_cast<long long>(block),
              static_cast<long long>(pulses), jobs);
  bench::print_rule();
  std::printf("%6s %8s %14s %10s %16s %10s\n", "shards", "image",
              "crit.path (s)", "jobs/s", "Gbp/s (modeled)", "efficiency");
  bench::print_rule();

  double base_rate = 0.0;
  for (const int shards : shard_counts) {
    const Index side = scaled_edge(edge, shards, block);
    const auto scenario = bench::make_bench_scenario(side, pulses);
    const auto history =
        std::make_shared<const sim::PhaseHistory>(scenario.history);

    std::vector<double> crit_paths;  // one per sample, warm-ups first
    const auto sample = [&]() -> double {
      service::ServiceConfig config;
      config.workers = 1;
      config.shards = shards;
      config.shard_workers = shard_workers;
      // Force the splitter: weak scaling measures the sharded data path,
      // so even the base image must not take the single-shard shortcut.
      config.shard_small_pixels = 0;
      config.max_pending = static_cast<std::size_t>(jobs) + 1;
      service::ImageFormationService srv(config);

      std::vector<std::shared_ptr<service::JobHandle>> handles;
      Timer wall;
      for (int j = 0; j < jobs; ++j) {
        service::ImageFormationRequest req;
        req.grid = scenario.grid;
        req.pulses = history;
        req.asr_block_w = req.asr_block_h = block;
        auto outcome = srv.submit(std::move(req));
        if (!outcome.admitted()) continue;
        handles.push_back(std::move(outcome.handle));
      }
      double done = 0.0;
      double max_compute = 0.0;
      for (const auto& handle : handles) {
        const service::JobResult& result = handle->wait();
        if (result.state != service::JobState::kDone) continue;
        done += 1.0;
        max_compute = std::max(max_compute, result.compute_seconds);
      }
      const double seconds = wall.seconds();
      srv.drain();
      crit_paths.push_back(max_compute);
      return seconds > 0.0 ? done / seconds : 0.0;
    };
    const bench::SampleStats sampled = bench::run_repeated(spec, sample);
    crit_paths.erase(crit_paths.begin(), crit_paths.begin() + spec.warmup);
    const bench::SampleStats crit_stats = bench::summarize(crit_paths);
    const double crit_path = crit_stats.median;

    const double work = static_cast<double>(side) *
                        static_cast<double>(side) *
                        static_cast<double>(pulses);
    const double gbps =
        crit_path > 0.0 ? work / crit_path / 1e9 : 0.0;
    const double per_shard_rate = gbps / static_cast<double>(shards);
    if (base_rate == 0.0) base_rate = per_shard_rate;
    const double efficiency =
        base_rate > 0.0 ? per_shard_rate / base_rate : 0.0;
    std::printf("%6d %8lld %14.3f %10.2f %16.3f %10.2f\n", shards,
                static_cast<long long>(side), crit_path, sampled.median,
                gbps, efficiency);

    const std::vector<std::pair<std::string, std::string>> params = {
        {"shards", std::to_string(shards)},
        {"shard_workers", std::to_string(shard_workers)},
        {"image", std::to_string(side)},
        {"pulses", std::to_string(pulses)},
        {"jobs", std::to_string(jobs)},
        {"efficiency", std::to_string(efficiency)}};
    json.add("weak_scaling", params, "jobs_per_s", sampled);
    json.add("critical_path", params, "s", crit_stats);
  }
  bench::print_rule();
  std::printf("(efficiency: per-shard modeled rate vs the first row; the\n"
              " modeled rate is pixels x pulses over the critical path, the\n"
              " median over samples of a sample's slowest band compute)\n");
  return 0;
}
