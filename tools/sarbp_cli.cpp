// sarbp — command-line front end for the library.
//
//   sarbp simulate --out collection.sarbp [--ix N --pulses N --seed N ...]
//       Simulate a spotlight collection over a clutter+cluster scene and
//       save the range-compressed phase history.
//   sarbp info --in collection.sarbp
//       Describe a saved phase history.
//   sarbp image --in collection.sarbp --out image.npy [--pgm image.pgm]
//       Backproject a saved collection (ASR + SIMD + OpenMP); optional
//       kernel/block/ffbp switches.
//   sarbp pipeline --frames N [--ix N --pulses N] [--out-prefix frames_]
//       Run the streaming surveillance pipeline on simulated repeat-pass
//       data and report CFAR detections per frame.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "backprojection/ffbp.h"
#include "common/rng.h"
#include "common/timer.h"
#include "exec/formation_tasks.h"
#include "geometry/trajectory.h"
#include "io/history_io.h"
#include "io/image_io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "quality/metrics.h"
#include "service/service.h"
#include "service/trace.h"
#include "sim/collector.h"
#include "sim/scene.h"
#include "streaming/subaperture_cache.h"
#include "streaming/trace_replay.h"

namespace {

using namespace sarbp;

struct Cli {
  /// Tokens after the subcommand; "--key=value" is split into two tokens so
  /// both spellings work.
  std::vector<std::string> tokens;

  Cli(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string token = argv[i];
      const std::size_t eq = token.find('=');
      if (token.rfind("--", 0) == 0 && eq != std::string::npos) {
        tokens.push_back(token.substr(0, eq));
        tokens.push_back(token.substr(eq + 1));
      } else {
        tokens.push_back(token);
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const char* key) const {
    const std::string flag = std::string("--") + key;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (flag == tokens[i]) return tokens[i + 1];
    }
    return std::nullopt;
  }
  [[nodiscard]] long get_long(const char* key, long fallback) const {
    const auto v = get(key);
    return v ? std::atol(v->c_str()) : fallback;
  }
  [[nodiscard]] double get_double(const char* key, double fallback) const {
    const auto v = get(key);
    return v ? std::atof(v->c_str()) : fallback;
  }
  [[nodiscard]] bool has(const char* key) const {
    const std::string flag = std::string("--") + key;
    for (const auto& token : tokens) {
      if (flag == token) return true;
    }
    return false;
  }

  /// First "--flag" token not in `allowed`, or nullopt when every flag is
  /// recognized. Value tokens are skipped (only "--"-prefixed tokens are
  /// checked), so values that happen to contain dashes stay legal.
  [[nodiscard]] std::optional<std::string> unknown_flag(
      std::initializer_list<const char*> allowed) const {
    for (const auto& token : tokens) {
      if (token.rfind("--", 0) != 0) continue;
      bool known = false;
      for (const char* a : allowed) {
        if (token == std::string("--") + a) {
          known = true;
          break;
        }
      }
      if (!known) return token;
    }
    return std::nullopt;
  }
};

geometry::OrbitParams default_orbit(const Cli& cli) {
  geometry::OrbitParams orbit;
  orbit.radius_m = cli.get_double("standoff", 40000.0);
  orbit.altitude_m = cli.get_double("altitude", 8000.0);
  orbit.angular_rate_rad_s = cli.get_double("rate", 0.066);
  orbit.prf_hz = cli.get_double("prf", 400.0);
  return orbit;
}

int cmd_simulate(const Cli& cli) {
  const auto out = cli.get("out");
  if (!out) {
    std::fprintf(stderr, "simulate: --out <file> is required\n");
    return 2;
  }
  const Index image = cli.get_long("ix", 256);
  const Index pulses = cli.get_long("pulses", 256);
  const auto seed = static_cast<std::uint64_t>(cli.get_long("seed", 1));

  Rng rng(seed);
  const geometry::ImageGrid grid(image, image,
                                 cli.get_double("pixel", 0.5));
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = cli.get_double("perturb", 0.05);
  const auto poses =
      geometry::circular_orbit(default_orbit(cli), errors, pulses, rng);

  sim::ReflectorScene scene;
  if (cli.has("clutter")) {
    scene = sim::make_clutter_field(grid, cli.get_long("clutter", 4), 1.0, rng);
  }
  sim::ClusterSceneParams clusters;
  clusters.clusters = static_cast<int>(cli.get_long("clusters", 4));
  scene.extend(sim::make_cluster_scene(grid, clusters, rng));

  sim::CollectorParams collector;
  if (cli.has("full-waveform")) {
    collector.fidelity = sim::CollectionFidelity::kFullWaveform;
  }
  collector.noise_sigma = cli.get_double("noise", 0.0);
  const auto history = sim::collect(collector, grid, scene, poses, rng);
  io::save_phase_history(*out, history);
  std::printf("wrote %s: %lld pulses x %lld samples (%.1f MB), %zu reflectors\n",
              out->c_str(), static_cast<long long>(history.num_pulses()),
              static_cast<long long>(history.samples_per_pulse()),
              static_cast<double>(history.payload_bytes()) / 1e6,
              scene.size());
  return 0;
}

int cmd_info(const Cli& cli) {
  const auto in = cli.get("in");
  if (!in) {
    std::fprintf(stderr, "info: --in <file> is required\n");
    return 2;
  }
  const auto history = io::load_phase_history(*in);
  std::printf("%s:\n", in->c_str());
  std::printf("  pulses            %lld\n",
              static_cast<long long>(history.num_pulses()));
  std::printf("  samples per pulse %lld\n",
              static_cast<long long>(history.samples_per_pulse()));
  std::printf("  bin spacing       %.4f m\n", history.bin_spacing());
  std::printf("  wavenumber k      %.2f cycles/m (f0 ~ %.2f GHz)\n",
              history.wavenumber(),
              history.wavenumber() * 299792458.0 / 2.0 / 1e9);
  std::printf("  payload           %.1f MB\n",
              static_cast<double>(history.payload_bytes()) / 1e6);
  if (history.num_pulses() > 0) {
    const auto& first = history.meta(0);
    const auto& last = history.meta(history.num_pulses() - 1);
    std::printf("  first pulse at    (%.0f, %.0f, %.0f) m, r0 = %.0f m\n",
                first.position.x, first.position.y, first.position.z,
                first.start_range_m);
    std::printf("  time span         %.3f s\n", last.time_s - first.time_s);
  }
  return 0;
}

int cmd_image(const Cli& cli) {
  const auto in = cli.get("in");
  const auto out = cli.get("out");
  if (!in || !out) {
    std::fprintf(stderr, "image: --in <file> and --out <file.npy> are required\n");
    return 2;
  }
  const auto history = io::load_phase_history(*in);
  const Index image = cli.get_long("ix", 256);
  const geometry::ImageGrid grid(image, image, cli.get_double("pixel", 0.5));

  Grid2D<CFloat> result(image, image);
  Timer timer;
  if (cli.has("ffbp")) {
    bp::FfbpOptions ffbp;
    ffbp.group = cli.get_long("group", 4);
    ffbp.tile = cli.get_long("tile", 64);
    result = bp::ffbp_form_image(history, grid, ffbp);
  } else {
    bp::BackprojectOptions options;
    options.asr_block_w = options.asr_block_h = cli.get_long("block", 64);
    if (cli.has("baseline")) options.kernel = bp::KernelKind::kBaseline;
    if (cli.has("scalar")) options.kernel = bp::KernelKind::kAsrScalar;
    const exec::Backprojector backprojector(grid, options);
    result = backprojector.form_image(history);
  }
  const double seconds = timer.seconds();
  io::write_npy(*out, result);
  if (const auto pgm = cli.get("pgm")) {
    io::write_pgm(*pgm, result);
  }
  const double bp_count = static_cast<double>(image) *
                          static_cast<double>(image) *
                          static_cast<double>(history.num_pulses());
  std::printf("formed %lldx%lld image in %.3f s (%.1f Mbp/s); contrast %.1f; "
              "wrote %s\n",
              static_cast<long long>(image), static_cast<long long>(image),
              seconds, bp_count / seconds / 1e6,
              quality::peak_to_mean(result), out->c_str());
  return 0;
}

int cmd_pipeline(const Cli& cli) {
  const int frames = static_cast<int>(cli.get_long("frames", 3));
  const Index image = cli.get_long("ix", 128);
  const Index pulses = cli.get_long("pulses", 96);
  const auto prefix = cli.get("out-prefix");

  Rng rng(static_cast<std::uint64_t>(cli.get_long("seed", 7)));
  const geometry::ImageGrid grid(image, image, cli.get_double("pixel", 0.5));
  auto scene = sim::make_clutter_field(grid, 4, 1.0, rng);
  // A transient target appearing after the first frame, so the run always
  // has something to detect.
  sim::Reflector transient;
  transient.position = grid.position(image / 3, 2 * image / 3);
  transient.amplitude = 6.0;
  transient.appear_s = 0.5;
  scene.add(transient);

  pipeline::PipelineConfig config;
  config.accumulation_factor = 0;
  config.registration.patch = image > 96 ? 31 : 15;
  config.registration.control_points_x = 3;
  config.registration.control_points_y = 3;
  config.ccd.window = 9;
  config.cfar.window = 15;
  config.cfar.guard = 5;
  pipeline::SurveillancePipeline pipe(grid, config);

  geometry::OrbitParams orbit = default_orbit(cli);
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.02;
  sim::CollectorParams collector;
  for (int f = 0; f < frames; ++f) {
    Rng pass_rng(100 + static_cast<std::uint64_t>(f));
    auto poses = geometry::circular_orbit(orbit, errors, pulses, pass_rng);
    for (auto& pose : poses) pose.time_s += f;
    Rng col_rng(200 + static_cast<std::uint64_t>(f));
    pipe.push_pulses(sim::collect(collector, grid, scene, poses, col_rng));
  }
  pipe.close_input();

  while (auto frame = pipe.pop_result()) {
    std::printf("frame %lld: %s, %zu detections\n",
                static_cast<long long>(frame->frame),
                frame->is_reference ? "reference" : "surveillance",
                frame->cfar.detections.size());
    for (const auto& d : frame->cfar.detections) {
      std::printf("  detection at (%lld, %lld), statistic %.1f\n",
                  static_cast<long long>(d.x), static_cast<long long>(d.y),
                  d.statistic);
    }
    if (prefix) {
      io::write_pgm(*prefix + std::to_string(frame->frame) + ".pgm",
                    frame->image);
    }
  }
  return 0;
}

int cmd_serve_trace(const Cli& cli) {
  service::Trace trace;
  if (const auto path = cli.get("trace")) {
    std::ifstream in(*path);
    if (!in) {
      std::fprintf(stderr, "serve-trace: cannot read %s\n", path->c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    trace = service::parse_trace_json(buffer.str());
  } else if (cli.has("streaming")) {
    trace = service::make_streaming_trace(
        static_cast<int>(cli.get_long("streams", 2)),
        static_cast<int>(cli.get_long("pushes", 12)), cli.get_long("ix", 96),
        cli.get_long("pulses", 16), cli.get_long("block", 32),
        cli.get_long("chunk", 16), cli.get_long("window", 4),
        static_cast<int>(cli.get_long("reanchor", 8)));
  } else {
    trace = service::make_repeated_scene_trace(
        static_cast<int>(cli.get_long("scenes", 3)),
        static_cast<int>(cli.get_long("repeats", 4)), cli.get_long("ix", 96),
        cli.get_long("pulses", 48), cli.get_long("block", 32));
  }
  if (const auto emit = cli.get("emit-trace")) {
    std::ofstream out(*emit);
    out << service::to_json(trace);
    std::printf("wrote trace (%zu requests) to %s\n", trace.requests.size(),
                emit->c_str());
  }

  service::ServiceConfig config;
  config.workers = static_cast<int>(cli.get_long("workers", 2));
  config.max_pending =
      static_cast<std::size_t>(cli.get_long("max-pending", 64));
  config.shards = static_cast<int>(cli.get_long("shards", 1));
  config.shard_workers = static_cast<int>(cli.get_long("shard-workers", 1));
  if (const auto cache = cli.get("cache")) {
    if (*cache == "off") {
      config.plan_cache_capacity = 0;
    } else if (*cache != "on") {
      std::fprintf(stderr, "serve-trace: --cache must be on|off\n");
      return 2;
    }
  }

  bool has_streams = false;
  for (const auto& entry : trace.requests) {
    if (entry.stream != 0) has_streams = true;
  }
  if (has_streams && config.shards >= 2) {
    std::fprintf(stderr,
                 "serve-trace: streaming entries need a local-mode service "
                 "(--shards 1)\n");
    return 2;
  }

  service::ImageFormationService srv(config);
  streaming::SubApertureCacheConfig cache_config;
  if (config.plan_cache_capacity == 0) cache_config.capacity = 0;
  streaming::SubApertureCache subaperture_cache(cache_config);
  streaming::TraceStreamReplayer stream_replayer(srv, &subaperture_cache);
  const service::ReplayStats stats =
      service::replay_trace(trace, srv, &stream_replayer);
  srv.drain();

  if (config.shards >= 2) {
    std::printf("replayed %zu requests on %d shards x %d workers "
                "(plan cache %s)\n",
                stats.submitted + stats.rejected, config.shards,
                config.shard_workers,
                config.plan_cache_capacity > 0 ? "on" : "off");
  } else {
    std::printf("replayed %zu requests on %d workers (plan cache %s)\n",
                stats.submitted + stats.rejected, config.workers,
                config.plan_cache_capacity > 0 ? "on" : "off");
  }
  std::printf("  done %zu  failed %zu  cancelled %zu  expired %zu  "
              "rejected %zu\n",
              stats.done, stats.failed, stats.cancelled, stats.expired,
              stats.rejected);
  std::printf("  wall %.3f s, throughput %.2f jobs/s\n", stats.wall_seconds,
              stats.throughput_jobs_per_s);
  std::printf("  latency p50/p90/p99 = %.3f / %.3f / %.3f s\n",
              stats.latency_p50_s, stats.latency_p90_s, stats.latency_p99_s);
  std::printf("  plan cache: %zu hits, %zu misses (%zu unkept); latency p50 "
              "%.4f s (hit) vs %.4f s (miss), miss/hit %.2fx\n",
              stats.plan_hits, stats.plan_misses, stats.plan_unkept_misses,
              stats.hit_latency_p50_s,
              stats.miss_latency_p50_s,
              stats.hit_latency_p50_s > 0.0
                  ? stats.miss_latency_p50_s / stats.hit_latency_p50_s
                  : 0.0);
  if (stats.streams > 0) {
    std::printf("  streaming: %zu sessions, %zu pushes -> %zu updates "
                "(%zu re-anchors), %zu sub-aperture cache hits, %zu "
                "dropped\n",
                stats.streams, stats.stream_pushes, stats.stream_updates,
                stats.stream_reanchors, stats.stream_cache_hits,
                stats.stream_dropped);
  }
  return stats.failed == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: sarbp <simulate|info|image|pipeline|serve-trace> "
               "[--key value ...]\n"
               "  simulate --out f.sarbp [--ix 256 --pulses 256 --seed 1 "
               "--clutter 4 --full-waveform --noise 0.0 --perturb 0.05]\n"
               "  info     --in f.sarbp\n"
               "  image    --in f.sarbp --out f.npy [--pgm f.pgm --ix 256 "
               "--block 64 --baseline | --scalar | --ffbp --group 4]\n"
               "  pipeline --frames 3 [--ix 128 --pulses 96 --out-prefix p_]\n"
               "  serve-trace [--trace f.json | --scenes 3 --repeats 4 "
               "--ix 96 --pulses 48 --block 32 | --streaming --streams 2 "
               "--pushes 12 --chunk 16 --window 4 --reanchor 8] "
               "[--workers 2 --cache on|off --max-pending 64 --shards 1 "
               "--shard-workers 1 --emit-trace f.json]\n"
               "      replay a sarbp.trace.v1 request trace (or a synthetic\n"
               "      repeated-scene workload) through the multi-tenant job\n"
               "      service and report throughput, latency percentiles,\n"
               "      and plan-cache effectiveness; --streaming generates a\n"
               "      sliding-aperture workload instead (trace entries with\n"
               "      a nonzero \"stream\" feed incremental-update sessions)\n"
               "unknown subcommands or flags exit with status 2\n"
               "every command accepts --metrics-out=metrics.json to dump the\n"
               "structured observability registry (stage spans, queue gauges,\n"
               "throughput) as schema-versioned JSON\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const Cli cli{argc, argv};
  const std::string command = argv[1];
  try {
    int rc = 2;
    bool known = true;
    std::optional<std::string> bad_flag;
    if (command == "simulate") {
      bad_flag = cli.unknown_flag(
          {"out", "ix", "pulses", "seed", "pixel", "clutter", "clusters",
           "full-waveform", "noise", "perturb", "standoff", "altitude", "rate",
           "prf", "metrics-out"});
      if (!bad_flag) rc = cmd_simulate(cli);
    } else if (command == "info") {
      bad_flag = cli.unknown_flag({"in", "metrics-out"});
      if (!bad_flag) rc = cmd_info(cli);
    } else if (command == "image") {
      bad_flag = cli.unknown_flag({"in", "out", "pgm", "ix", "pixel", "block",
                                   "baseline", "scalar", "ffbp", "group",
                                   "tile", "metrics-out"});
      if (!bad_flag) rc = cmd_image(cli);
    } else if (command == "pipeline") {
      bad_flag = cli.unknown_flag({"frames", "ix", "pulses", "out-prefix",
                                   "seed", "pixel", "standoff", "altitude",
                                   "rate", "prf", "metrics-out"});
      if (!bad_flag) rc = cmd_pipeline(cli);
    } else if (command == "serve-trace") {
      bad_flag = cli.unknown_flag({"trace", "emit-trace", "scenes", "repeats",
                                   "ix", "pulses", "block", "workers", "cache",
                                   "max-pending", "shards", "shard-workers",
                                   "streaming", "streams", "pushes", "chunk",
                                   "window", "reanchor", "metrics-out"});
      if (!bad_flag) rc = cmd_serve_trace(cli);
    } else {
      known = false;
    }
    if (bad_flag) {
      std::fprintf(stderr, "sarbp %s: unknown flag %s\n", command.c_str(),
                   bad_flag->c_str());
      usage();
      return 2;
    }
    if (known) {
      if (const auto metrics_out = cli.get("metrics-out")) {
        obs::write_json_file(obs::registry(), *metrics_out);
        std::printf("wrote metrics to %s\n", metrics_out->c_str());
      }
      return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sarbp %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  usage();
  return 2;
}
