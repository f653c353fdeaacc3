// Table 4 through the serving stack: weak scaling of the *sharded*
// formation service. The paper grows the image with the cluster so
// per-node work stays constant (1-16 nodes, efficiency 1.00 -> 0.93); here
// the image edge grows ~ sqrt(shards), block-aligned so the grid splitter
// cuts on ASR block boundaries, and every request flows through the full
// service path: admission -> weighted-fair claim -> shard router -> rank
// inbox -> per-rank tile executor -> reply queue -> gather.
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
//
// A rank sweeps its band on its shard_workers workers and on the rank
// thread that calls exec.run, so the 1-shard row, which is the local
// service (no rank), runs shard_workers + 1 workers: every row sweeps each
// band on as many threads. The warm-ups of every shard count run first,
// then the measured samples take the counts in turn (one round), so host
// drift lands on every row alike, and the efficiency is the median over
// rounds of each round's ratio.
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

  struct Row {
    int shards;
    Index side;
    geometry::ImageGrid grid;
    std::shared_ptr<const sim::PhaseHistory> history;
    std::vector<double> rates;       // jobs/s, one per measured sample
    std::vector<double> crit_paths;  // s, one per measured sample
  };
  std::vector<Row> rows;
  for (const int shards : shard_counts) {
    const Index side = scaled_edge(edge, shards, block);
    bench::BenchScenario scenario = bench::make_bench_scenario(side, pulses);
    rows.push_back(Row{shards, side, scenario.grid,
                       std::make_shared<const sim::PhaseHistory>(
                           std::move(scenario.history)),
                       {}, {}});
  }

  // One service round at one shard count: {jobs/s, critical path}.
  const auto sample = [&](const Row& row) -> std::pair<double, double> {
    service::ServiceConfig config;
    config.workers = row.shards >= 2 ? 1 : shard_workers + 1;
    config.shards = row.shards;
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
      req.grid = row.grid;
      req.pulses = row.history;
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
    return {seconds > 0.0 ? done / seconds : 0.0, max_compute};
  };
  for (int i = 0; i < spec.warmup; ++i) {
    for (const Row& row : rows) (void)sample(row);
  }
  for (int i = 0; i < spec.repeat; ++i) {
    for (Row& row : rows) {
      const auto [rate, crit_path] = sample(row);
      row.rates.push_back(rate);
      row.crit_paths.push_back(crit_path);
    }
  }

  // A round's modeled rate per shard, pixels x pulses over the critical
  // path. The rows' samples interleave, so round i of every row ran
  // seconds apart, and each round's efficiency divides two rates the host
  // drift touched alike.
  const auto shard_rate = [&](const Row& row, std::size_t round) {
    const double work = static_cast<double>(row.side) *
                        static_cast<double>(row.side) *
                        static_cast<double>(pulses);
    const double crit_path = row.crit_paths[round];
    return crit_path > 0.0
               ? work / crit_path / static_cast<double>(row.shards)
               : 0.0;
  };
  for (const Row& row : rows) {
    std::vector<double> efficiencies;
    for (std::size_t i = 0; i < row.crit_paths.size(); ++i) {
      const double base = shard_rate(rows.front(), i);
      efficiencies.push_back(base > 0.0 ? shard_rate(row, i) / base : 0.0);
    }
    const bench::SampleStats sampled = bench::summarize(row.rates);
    const bench::SampleStats crit_stats = bench::summarize(row.crit_paths);
    const bench::SampleStats eff_stats = bench::summarize(efficiencies);
    const double crit_path = crit_stats.median;
    const double work = static_cast<double>(row.side) *
                        static_cast<double>(row.side) *
                        static_cast<double>(pulses);
    const double gbps = crit_path > 0.0 ? work / crit_path / 1e9 : 0.0;
    const double efficiency = eff_stats.median;
    std::printf("%6d %8lld %14.3f %10.2f %16.3f %10.2f\n", row.shards,
                static_cast<long long>(row.side), crit_path, sampled.median,
                gbps, efficiency);

    const std::vector<std::pair<std::string, std::string>> params = {
        {"shards", std::to_string(row.shards)},
        {"shard_workers", std::to_string(shard_workers)},
        {"image", std::to_string(row.side)},
        {"pulses", std::to_string(pulses)},
        {"jobs", std::to_string(jobs)},
        {"efficiency", std::to_string(efficiency)}};
    json.add("weak_scaling", params, "jobs_per_s", sampled);
    json.add("critical_path", params, "s", crit_stats);
    json.add("efficiency", params, "ratio", eff_stats);
  }
  bench::print_rule();
  std::printf("(efficiency: the median over rounds of a round's per-shard\n"
              " modeled rate over the first row's in the same round; the\n"
              " modeled rate is pixels x pulses over the round's slowest\n"
              " band compute, and crit.path is its median; the 1-shard\n"
              " row is the local service on shard-workers + 1 workers)\n");
  return 0;
}
