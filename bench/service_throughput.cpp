// Job-service throughput bench: replays the canonical repeated-scene trace
// through the multi-tenant image-formation service, sweeping the worker
// count and toggling the formation-plan cache. Reports throughput, latency
// percentiles, and the median latency of plan-cache hits vs misses — the
// cache's whole value proposition is that repeated-geometry requests skip
// the ASR table construction, which a miss builds inside its sweep tasks,
// so a hit's latency is a miss's minus that build.
//
//   service_throughput [--scenes 4 --repeats 6 --ix 128 --pulses 64
//                       --block 32 --workers 1,2,4 --steal 1
//                       --warmup 1 --repeat 3 --json out.json
//                       --metrics-out m.json]
//
// --warmup/--repeat rerun each (workers, cache) replay and print the
// median-throughput run; --json emits a sarbp.bench.v1 record per
// configuration: median + IQR of jobs/s, and the plan-cache hits, kept
// misses and unkept misses of every measured run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/trace.h"

namespace {

using namespace sarbp;

std::vector<int> parse_worker_list(const std::string& spec) {
  std::vector<int> workers;
  std::string current;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!current.empty()) workers.push_back(std::atoi(current.c_str()));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return workers;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const int scenes = static_cast<int>(args.get("scenes", 4));
  const int repeats = static_cast<int>(args.get("repeats", 6));
  const Index image = args.get("ix", 128);
  const Index pulses = args.get("pulses", 64);
  const Index block = args.get("block", 32);
  const bool steal = args.get("steal", 1) != 0;
  std::vector<int> worker_counts = parse_worker_list(args.gets("workers"));
  if (worker_counts.empty()) worker_counts = {1, 2, 4};
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("service_throughput", spec);

  bench::print_header("job service throughput: workers x plan cache");
  std::printf("trace: %d scenes x %d repeats, %lldx%lld px, %lld pulses, "
              "ASR block %lld\n",
              scenes, repeats, static_cast<long long>(image),
              static_cast<long long>(image), static_cast<long long>(pulses),
              static_cast<long long>(block));
  const service::Trace trace = service::make_repeated_scene_trace(
      scenes, repeats, image, pulses, block);

  bench::print_rule();
  std::printf("%7s %6s %9s %9s %9s %9s %10s %10s %6s %6s %6s\n", "workers",
              "cache", "jobs/s", "p50 s", "p90 s", "p99 s", "p50-hit",
              "p50-miss", "hits", "kept", "unkept");
  bench::print_rule();

  double hit_p50 = 0.0;
  double miss_p50 = 0.0;
  for (const int workers : worker_counts) {
    for (const bool cache_on : {false, true}) {
      // Replay warmup+repeat times; print the median-throughput run so the
      // table and the JSON summary describe the same sample set.
      std::vector<service::ReplayStats> runs;
      const auto sample = [&]() -> double {
        service::ServiceConfig config;
        config.workers = workers;
        config.steal = steal;
        config.max_pending = static_cast<std::size_t>(scenes * repeats + 1);
        config.plan_cache_capacity =
            cache_on ? static_cast<std::size_t>(scenes) : 0;
        service::ImageFormationService srv(config);
        const service::ReplayStats run = service::replay_trace(trace, srv);
        srv.drain();
        runs.push_back(run);
        return run.throughput_jobs_per_s;
      };
      const bench::SampleStats sampled = bench::run_repeated(spec, sample);
      bench::JsonReporter::Counts counts = {{"hits", {}}, {"kept", {}},
                                            {"unkept", {}}};
      for (std::size_t i = static_cast<std::size_t>(spec.warmup);
           i < runs.size(); ++i) {
        counts[0].second.push_back(runs[i].plan_hits);
        counts[1].second.push_back(runs[i].plan_misses -
                                   runs[i].plan_unkept_misses);
        counts[2].second.push_back(runs[i].plan_unkept_misses);
      }
      json.add("replay",
               {{"workers", std::to_string(workers)},
                {"cache", cache_on ? "on" : "off"},
                {"steal", steal ? "on" : "off"},
                {"scenes", std::to_string(scenes)},
                {"repeats", std::to_string(repeats)}},
               "jobs_per_s", sampled, std::move(counts));
      // The run whose throughput is closest to the median of the measured
      // samples (warmup runs were also pushed; skip them).
      const service::ReplayStats* best = &runs.back();
      for (std::size_t i = static_cast<std::size_t>(spec.warmup);
           i < runs.size(); ++i) {
        if (std::abs(runs[i].throughput_jobs_per_s - sampled.median) <
            std::abs(best->throughput_jobs_per_s - sampled.median)) {
          best = &runs[i];
        }
      }
      const service::ReplayStats& stats = *best;

      std::printf(
          "%7d %6s %9.2f %9.4f %9.4f %9.4f %10.5f %10.5f %6zu %6zu %6zu\n",
          workers, cache_on ? "on" : "off", stats.throughput_jobs_per_s,
          stats.latency_p50_s, stats.latency_p90_s, stats.latency_p99_s,
          stats.hit_latency_p50_s, stats.miss_latency_p50_s, stats.plan_hits,
          stats.plan_misses - stats.plan_unkept_misses,
          stats.plan_unkept_misses);
      if (stats.failed + stats.cancelled + stats.expired + stats.rejected > 0) {
        std::printf("  !! %zu failed, %zu cancelled, %zu expired, "
                    "%zu rejected\n",
                    stats.failed, stats.cancelled, stats.expired,
                    stats.rejected);
      }
      if (cache_on && stats.plan_hits > 0) {
        hit_p50 = stats.hit_latency_p50_s;
        miss_p50 = stats.miss_latency_p50_s;
      }
    }
  }
  bench::print_rule();
  if (hit_p50 > 0.0 && miss_p50 > 0.0) {
    std::printf("plan-cache hit vs miss latency p50 (last cache-on row): "
                "%.5f s vs %.5f s (miss/hit %.2fx)\n",
                hit_p50, miss_p50, miss_p50 / hit_p50);
  }

  const std::string metrics_out = args.gets("metrics-out");
  if (!metrics_out.empty()) {
    obs::write_json_file(obs::registry(), metrics_out);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}
