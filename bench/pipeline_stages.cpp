// Reproduces the paper's Fig. 4 pipeline-stage accounting: per-stage times
// of the streaming surveillance pipeline at steady state. Paper findings
// (16 nodes, 13K images): backprojection ~0.9 s dominates; registration,
// CCD, CFAR and all transfers are kept far below it (non-BP compute < 4%).
// Every frame is collected before the first push, so the end-to-end line
// times the pipeline alone, from the first push to the last result.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  using namespace sarbp::pipeline;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 256);
  const Index pulses = args.get("pulses", 1024);
  const int frames = static_cast<int>(args.get("frames", 3));
  const std::string metrics_out = args.gets("metrics-out");

  bench::print_header("Fig. 4 - pipeline stage times at steady state");
  std::printf("workload: %lldx%lld image, %lld pulses/frame, %d frames "
              "(repeat-pass geometry)\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses), frames);

  // Repeat-pass clutter scene so registration/CCD operate on coherent
  // data, plus one transient target so CFAR has a real change to find.
  Rng rng(7);
  geometry::ImageGrid grid(image, image, 0.5);
  auto scene = sim::make_clutter_field(grid, 8, 1.0, rng);
  sim::Reflector transient;
  transient.position = grid.position(image / 3, 2 * image / 3);
  transient.amplitude = 8.0;
  transient.appear_s = 1.5;  // shows up from the second pass on
  scene.add(transient);
  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.066;
  orbit.prf_hz = 500.0;
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.02;

  PipelineConfig config;
  config.accumulation_factor = 0;  // repeat-pass: one batch per frame
  config.registration.patch = 31;
  config.registration.control_points_x = 3;
  config.registration.control_points_y = 3;
  config.ccd.window = 25;   // the paper's Ncor
  config.cfar.window = 25;  // the paper's Ncfar
  config.cfar.guard = 7;

  sim::CollectorParams collector;
  std::vector<sim::PhaseHistory> batches;
  for (int f = 0; f < frames; ++f) {
    Rng pass_rng(100 + static_cast<std::uint64_t>(f));
    auto poses = geometry::circular_orbit(orbit, errors, pulses, pass_rng);
    for (auto& pose : poses) pose.time_s += f;  // one pass per second
    Rng col_rng(200 + static_cast<std::uint64_t>(f));
    batches.push_back(sim::collect(collector, grid, scene, poses, col_rng));
  }

  SurveillancePipeline pipeline(grid, config);
  const Timer end_to_end;
  for (auto& batch : batches) pipeline.push_pulses(std::move(batch));
  pipeline.close_input();

  std::printf("\n%-6s %6s %14s %12s %8s %8s %10s\n", "frame", "ref?",
              "backproj (s)", "regist (s)", "ccd (s)", "cfar (s)",
              "detections");
  bench::print_rule();
  int completed = 0;
  while (auto frame = pipeline.pop_result()) {
    ++completed;
    auto stage = [&](const char* name) {
      const auto it = frame->stage_seconds.find(name);
      return it == frame->stage_seconds.end() ? 0.0 : it->second;
    };
    std::printf("%-6lld %6s %14.3f %12.3f %8.3f %8.3f %10zu\n",
                static_cast<long long>(frame->frame),
                frame->is_reference ? "yes" : "no", stage("backprojection"),
                stage("registration"), stage("ccd"), stage("cfar"),
                frame->cfar.detections.size());
  }
  const double end_to_end_s = end_to_end.seconds();

  const SectionTimes totals = pipeline.cumulative_stage_times();
  const double bp_total = totals.get("backprojection");
  const double other = totals.get("registration") + totals.get("ccd") +
                       totals.get("cfar") + totals.get("accumulate");
  std::printf("\ncumulative: backprojection %.3f s, all other stages %.3f s "
              "(%.1f%% of BP; paper keeps non-BP < 4%% after parallelization)\n",
              bp_total, other, 100.0 * other / bp_total);

  // Structured observability view: stage latency percentiles, queue
  // occupancy, and end-to-end frame throughput from the obs registry.
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  std::printf("\n%-32s %8s %10s %10s %10s\n", "span", "count", "p50 (s)",
              "p99 (s)", "total (s)");
  bench::print_rule();
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("pipeline.stage.", 0) == 0 ||
        name == "pipeline.frame.latency_s" || name == "bp.form_image_s") {
      std::printf("%-32s %8llu %10.4f %10.4f %10.4f\n", name.c_str(),
                  static_cast<unsigned long long>(h.count), h.p50, h.p99,
                  h.sum);
    }
  }
  std::printf("\nqueue gauges (depth now/max):");
  for (const auto& [name, g] : snap.gauges) {
    if (name.rfind("queue.pipeline.", 0) == 0) {
      std::printf("  %s %lld/%lld", name.c_str(),
                  static_cast<long long>(g.value),
                  static_cast<long long>(g.max));
    }
  }
  std::printf("\nend-to-end: %d frames in %.3f s (%.2f frames/s)\n",
              completed, end_to_end_s,
              static_cast<double>(completed) / end_to_end_s);

  if (!metrics_out.empty()) {
    obs::write_json_file(obs::registry(), metrics_out);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}
