// End-to-end benchmark binary: runs one workload and prints its metrics,
// ending with one JSON result line.
//
//   sarbp_perfbench --workload revisit|survey|stream|survey_sharded
//                   --seed N --seconds S [--trace 0|1] [--trace-out FILE]
//
// Runs are sized by request count, not wall time: --seconds S sets the
// count to S times a fixed per-workload rate, so a faster build finishes
// sooner instead of doing more work. perfbench/run.py
// builds this binary and is the benchmark's entry point; perfbench/README.md
// documents the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "perfbench.h"

namespace {

using namespace perfbench;

constexpr std::uint64_t kFamilyRevisit = 1;
constexpr std::uint64_t kFamilySurvey = 2;

// name, image, pulses, scenes, plan cache, in flight, sharded, warm-up
// requests, requests per --seconds second.
constexpr ServiceWorkload kServiceWorkloads[] = {
    {"revisit", 192, 128, 4, 4, 6, false, 4, 300.0},
    {"survey", 384, 256, 12, 2, 1, false, 2, 16.0},
    {"survey_sharded", 384, 256, 12, 2, 1, true, 2, 11.0},
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"images_per_s", "1/s"}, {"latency_p50_s", "s"}, {"latency_p90_s", "s"},
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"}, {"image_snr_db", "dB"},
};

constexpr Metric kPerLayer[] = {
    {"service.queue_p50_s", "s"},
    {"service.publish_p50_s", "s"},
    {"service.rejected", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"plan_cache.setup_p50_s", "s"},
    {"plan_cache.mb", "MiB"},
    {"asr.plan_build_s", "s"},
    {"asr.tables_per_s", "1/s"},
    {"kernel.simd_bp_per_s", "1/s"},
    {"kernel.scalar_bp_per_s", "1/s"},
    {"exec.compute_p50_s", "s"},
    {"exec.parallel_eff", "ratio"},
    {"exec.tasks_per_job", "count"},
    {"exec.steals_per_job", "count"},
    {"exec.steal_fails_per_job", "count"},
    {"stream.incremental_p50_s", "s"},
    {"stream.reanchor_p50_s", "s"},
    {"stream.bp_per_update", "count"},
    {"stream.cache_hit_ratio", "ratio"},
    {"stream.cache_hit_ratio_b", "ratio"},
    {"stream.rss_growth_kb_per_update", "KiB"},
    {"shard.gather_p50_s", "s"},
    {"shard.parts_per_job", "count"},
    {"client.self_p50_s", "s"},
    {"trace.overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
      opts.have_seed = true;
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value != "0";
    } else if (key == "--trace-out") {
      opts.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (opts.workload.empty() || !opts.have_seed || !(opts.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: sarbp_perfbench --workload W --seed N --seconds S "
        "[--trace 0|1] [--trace-out FILE]");
  }
  return opts;
}

std::size_t request_count(const Options& opts, double per_second) {
  return static_cast<std::size_t>(
      std::max(10.0, std::round(opts.seconds * per_second)));
}

/// Median over kRateBatches consecutive batches of the pass's steps of
/// images / seconds, scaled by the share of delivered images that passed
/// their check.
double images_per_s(const Pass& pass) {
  const std::size_t n = pass.step_s.size();
  const std::size_t batches = std::min(kRateBatches, n);
  std::vector<double> rates;
  double delivered = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    double seconds = 0.0;
    double images = 0.0;
    for (std::size_t i = b * n / batches; i < (b + 1) * n / batches; ++i) {
      seconds += pass.step_s[i];
      images += pass.step_images[i];
    }
    delivered += images;
    if (seconds > 0.0) rates.push_back(images / seconds);
  }
  if (delivered <= 0.0) return 0.0;
  return median(rates) * static_cast<double>(pass.passed) / delivered;
}

void print_pass(const char* label, const Pass& pass) {
  const std::size_t n = pass.latencies.size();
  std::printf("%s: %zu attempted, %zu failed, %zu images passed in %.3f s; "
              "latency n=%zu (%zu beyond p90); %zu images SNR-sampled\n",
              label, pass.attempted, pass.failed, pass.passed, pass.wall_s, n,
              n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n))),
              pass.snr_checked);
  for (const std::string& error : pass.errors) {
    std::printf("  image check FAILED: %s\n", error.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  for (const auto& [metric, value] : metrics) {
    std::printf("  %-34s %16.9g %s\n", metric.name, value, metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [metric, value] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name,
                std::isfinite(value) ? value : 0.0, metric.unit);
  }
  std::printf("}}\n");
}

int run(const Options& opts) {
  sarbp::require_compiled_isa_supported();
  const std::string host = host_facts();
  std::printf("host: %s\n", host.c_str());

  // Inputs first: their synthesis is not part of any timed phase.
  const bool stream = opts.workload == "stream";
  const ServiceWorkload* workload = nullptr;
  std::function<Pass(SpanLog*)> run_pass;
  std::vector<Scene> probe_inputs;
  if (stream) {
    auto inputs = std::make_shared<const StreamInputs>(make_stream_inputs(opts.seed));
    const std::size_t rounds = request_count(opts, kStreamRoundsPerSecond);
    std::printf("workload: stream seed=%llu rounds=%zu (3 sessions, 1 client, "
                "%d workers, SIMD sweeps)\n",
                static_cast<unsigned long long>(opts.seed), rounds,
                kServiceThreads);
    run_pass = [inputs, rounds](SpanLog* spans) {
      return run_stream_pass(*inputs, rounds, spans);
    };
    probe_inputs.push_back(stream_probe_input(*inputs));
  } else {
    for (const ServiceWorkload& w : kServiceWorkloads) {
      if (opts.workload == w.name) workload = &w;
    }
    if (workload == nullptr) {
      throw std::invalid_argument("unknown workload " + opts.workload);
    }
    // survey and survey_sharded form the same scenes.
    const std::uint64_t family = opts.workload == "revisit" ? kFamilyRevisit
                                                            : kFamilySurvey;
    auto scenes = std::make_shared<std::vector<Scene>>();
    for (std::size_t i = 0; i < workload->scenes; ++i) {
      scenes->push_back(make_scene(workload->image, workload->pulses,
                                   derive_seed(opts.seed, family, i)));
    }
    const std::size_t requests = request_count(opts, workload->per_second);
    std::printf("workload: %s seed=%llu requests=%zu (%zu scenes of %lld^2 px "
                "x %lld pulses, %zu in flight, %s)\n",
                workload->name, static_cast<unsigned long long>(opts.seed),
                requests, workload->scenes,
                static_cast<long long>(workload->image),
                static_cast<long long>(workload->pulses), workload->in_flight,
                workload->sharded ? "3 shard ranks x 1 worker, scalar replay"
                                  : "3 workers, SIMD backend");
    run_pass = [workload, scenes, requests](SpanLog* spans) {
      return run_service_pass(*workload, *scenes, requests, spans);
    };
    probe_inputs.assign(
        scenes->begin(),
        scenes->begin() + static_cast<std::ptrdiff_t>(
                              std::min<std::size_t>(4, scenes->size())));
  }

  const Pass pass = run_pass(nullptr);
  print_pass("untraced pass", pass);
  if (!opts.trace) {
    const bool correct = pass.errors.empty();
    std::vector<std::pair<Metric, double>> metrics;
    const double values[] = {images_per_s(pass),
                             median(pass.latencies),
                             p90(pass.latencies),
                             pass.setup_s,
                             pass.peak_rss_mb,
                             pass.min_snr_db};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
    print_result(correct, pass.attempted, pass.failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced pass: the same workload again, recording spans, then the direct
  // layer probes. Per-layer metrics come from here; end-to-end metrics
  // only ever come from the untraced pass.
  SpanLog log;
  const Pass traced = run_pass(&log);
  print_pass("traced pass", traced);
  const Probe probe = probe_layers(probe_inputs, &log);

  std::map<std::string, double> layers = traced.layers;
  layers["asr.plan_build_s"] = probe.plan_build_s;
  layers["asr.tables_per_s"] = probe.tables_per_s;
  layers["kernel.simd_bp_per_s"] = probe.simd_bp_per_s;
  layers["kernel.scalar_bp_per_s"] = probe.scalar_bp_per_s;
  if (workload != nullptr) {
    // Single-thread sweep of the same input over the pool's busy time.
    const double single = workload->sharded ? probe.scalar_s : probe.simd_s;
    const double compute = layers["exec.compute_p50_s"];
    layers["exec.parallel_eff"] =
        compute > 0.0 ? single / (compute * kServiceThreads) : 0.0;
  }
  const double untraced_rate = images_per_s(pass);
  layers["trace.overhead_pct"] =
      untraced_rate > 0.0
          ? 100.0 * (untraced_rate - images_per_s(traced)) / untraced_rate
          : 0.0;

  std::printf("layer self time (traced pass; per span, median and total):\n");
  for (const auto& [name, self] : log.self_times()) {
    double total = 0.0;
    for (const double s : self) total += s;
    std::printf("  %-22s n=%-6zu median %.6f s  total %.4f s\n", name.c_str(),
                self.size(), median(self), total);
  }
  if (!opts.trace_out.empty()) {
    if (log.write_chrome_trace(opts.trace_out, host)) {
      std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                  opts.trace_out.c_str());
    } else {
      std::printf("trace: could not write %s\n", opts.trace_out.c_str());
    }
  }

  const bool correct = pass.errors.empty() && traced.errors.empty();
  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& metric : kPerLayer) {
    const auto it = layers.find(metric.name);
    // Layers a workload does not exercise read 0 (see README.md).
    metrics.emplace_back(metric, it == layers.end() ? 0.0 : it->second);
  }
  print_result(correct, pass.attempted + traced.attempted,
               pass.failed + traced.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "sarbp_perfbench: %s\n", e.what());
    return 2;
  }
}
