// Shared declarations of the end-to-end benchmark binary: generated inputs,
// the record of one measured pass, the workloads, the off-the-clock image
// checks and the direct layer probes. perfbench/README.md describes the
// workloads, the metrics and the thread budget.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/grid2d.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "service/plan_cache.h"
#include "sim/phase_history.h"
#include "trace.h"

namespace perfbench {

using sarbp::CFloat;
using sarbp::Grid2D;
using sarbp::Index;
using Clock = std::chrono::steady_clock;

/// Thread budget on the 4-thread host: one client thread plus three service
/// workers (or three single-worker shard ranks). The off-the-clock checks
/// also use three threads, after the service has drained.
inline constexpr int kServiceThreads = 3;
/// ASR block edge (the paper's accuracy-matched 64 x 64) and pixel spacing.
inline constexpr Index kAsrBlock = 64;
inline constexpr double kPixelSpacing = 0.5;
/// Set-ups per pass; setup_s reports their median.
inline constexpr int kSetups = 5;
/// images_per_s is the median rate over this many consecutive batches of a
/// pass, so a burst of interference from other tenants of the host inside
/// one batch does not move it.
inline constexpr std::size_t kRateBatches = 10;
/// Floor of every image check that is not bit-identical.
inline constexpr double kMinSnrDb = 70.0;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median by the repo benches' summary; 0 over no samples.
[[nodiscard]] inline double median(std::vector<double> v) {
  return sarbp::bench::summarize(std::move(v)).median;
}

/// 90th percentile by the same linear-interpolation (type 7) estimator as
/// summarize(), which reports only the quartiles; 0 over no samples.
[[nodiscard]] inline double p90(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = 0.9 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// --- generated inputs (inputs.cpp) ----------------------------------------

struct Scene {
  sarbp::geometry::ImageGrid grid{0, 0, 1.0};
  std::shared_ptr<const sarbp::sim::PhaseHistory> history;
};

/// Consecutive pulse chunks along one orbit, oldest first.
using Feed = std::vector<std::shared_ptr<const sarbp::sim::PhaseHistory>>;

/// Independent seed for input `index` of input family `family`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t family,
                                        std::uint64_t index);

/// A square scene of `image` x `image` pixels over `pulses` pulses: the
/// repo benches' calibrated scenario (bench_util.h make_bench_scenario,
/// random-fidelity pulses, 0.5 m pixels).
[[nodiscard]] Scene make_scene(Index image, Index pulses, std::uint64_t seed);

/// `chunks` consecutive chunks of `chunk_pulses` pulses of one collection
/// of the same scenario over an `image` x `image` grid.
[[nodiscard]] Feed make_feed(Index image, Index chunks, Index chunk_pulses,
                             std::uint64_t seed);

/// Concatenates histories that share one sampling geometry, in order.
[[nodiscard]] sarbp::sim::PhaseHistory concat(
    const std::vector<const sarbp::sim::PhaseHistory*>& parts);

// --- process and registry measurements (measure.cpp) ----------------------

/// nproc, the repo's cpu_summary(), the selected SIMD ISA and L2/L3 sizes.
[[nodiscard]] std::string host_facts();
/// Resident high-water mark of the process (getrusage), MiB.
[[nodiscard]] double peak_rss_mb();
/// Resident set right now, KiB.
[[nodiscard]] double current_rss_kb();
/// Sum over the counters whose name ends with `suffix` of after - before.
[[nodiscard]] double counter_delta(const sarbp::obs::MetricsSnapshot& before,
                                   const sarbp::obs::MetricsSnapshot& after,
                                   const std::string& suffix);
/// p50 of a registry histogram; 0 when it does not exist.
[[nodiscard]] double histogram_p50(const sarbp::obs::MetricsSnapshot& snapshot,
                                   const std::string& name);

// --- one measured pass ------------------------------------------------------

struct Pass {
  std::size_t attempted = 0;
  /// Rejected, failed, expired or cancelled requests, plus delivered
  /// images that failed their check.
  std::size_t failed = 0;
  /// Delivered images that passed their check.
  std::size_t passed = 0;
  double wall_s = 0.0;  ///< measured wall time; checks are off the clock
  /// The measured wall time step by step (a delivery, or a stream round)
  /// with the images each step delivered; images_per_s batches these.
  std::vector<double> step_s;
  std::vector<double> step_images;
  std::vector<double> latencies;  ///< submit/push -> image in hand
  double setup_s = 0.0;           ///< median of kSetups set-ups
  double peak_rss_mb = 0.0;       ///< read before the checks run
  double min_snr_db = 0.0;        ///< pixel sample vs backproject_ref
  std::size_t snr_checked = 0;    ///< images behind min_snr_db
  std::vector<std::string> errors;  ///< failed image checks
  /// Per-layer metrics this pass measured, by BENCHMARK.json name.
  std::map<std::string, double> layers;
};

/// One closed-loop formation workload through ImageFormationService.
struct ServiceWorkload {
  const char* name;
  Index image;
  Index pulses;
  std::size_t scenes;
  std::size_t plan_cache;  ///< plan-cache capacity, in plans
  std::size_t in_flight;   ///< jobs the single client keeps submitted
  bool sharded;            ///< 3 ranks x 1 worker instead of 3 workers
  std::size_t warm;        ///< requests each set-up forms
  double per_second;       ///< requests per --seconds second
};

/// Runs `requests` requests of `w` round-robin over `scenes`. `spans`
/// (nullable) receives one request span tree per delivered image.
[[nodiscard]] Pass run_service_pass(const ServiceWorkload& w,
                                    const std::vector<Scene>& scenes,
                                    std::size_t requests, SpanLog* spans);

/// The stream workload's inputs: one grid and two cyclic chunk feeds.
struct StreamInputs {
  sarbp::geometry::ImageGrid grid{0, 0, 1.0};
  Feed feeds[2];
};
/// Stream rounds (one chunk per session) per --seconds second. Capped far
/// below the throughput (about 160 rounds/s) because every streaming update
/// leaks its tiles (perfbench/README.md, finding 1): 300 rounds per 10 s
/// run already hold about 230 MiB.
inline constexpr double kStreamRoundsPerSecond = 30.0;

[[nodiscard]] StreamInputs make_stream_inputs(std::uint64_t seed);
/// Session A's first full window as one collection (the layer probes' input).
[[nodiscard]] Scene stream_probe_input(const StreamInputs& inputs);
[[nodiscard]] Pass run_stream_pass(const StreamInputs& inputs,
                                   std::size_t rounds, SpanLog* spans);

// --- image checks and layer probes (checks.cpp) ---------------------------

/// Byte-exact fingerprint of an image.
[[nodiscard]] std::uint64_t hash_image(const Grid2D<CFloat>& image);
/// Serial scalar replay: service::execute_plan on one thread.
[[nodiscard]] Grid2D<CFloat> scalar_replay(
    const sarbp::service::FormationPlan& plan,
    const sarbp::sim::PhaseHistory& history);
/// The local service's SIMD-backend replay on a one-worker executor.
[[nodiscard]] Grid2D<CFloat> simd_replay(
    std::shared_ptr<const sarbp::service::FormationPlan> plan,
    std::shared_ptr<const sarbp::sim::PhaseHistory> history);
/// SNR of `image` against bp::backproject_ref over a fixed pixel sample.
[[nodiscard]] double sample_snr_db(const Grid2D<CFloat>& image,
                                   const sarbp::geometry::ImageGrid& grid,
                                   const sarbp::sim::PhaseHistory& history);

struct SceneCheck {
  std::uint64_t hash = 0;  ///< bytes every delivery of the scene must have
  double snr_db = 0.0;     ///< sample_snr_db of the expected image
  bool ok = true;
};
/// Expected delivery of every scene, on kServiceThreads threads: the SIMD
/// replay (checked > kMinSnrDb against the serial scalar replay) when
/// `simd`, else the serial scalar replay itself.
[[nodiscard]] std::vector<SceneCheck> check_scenes(
    const std::vector<Scene>& scenes, bool simd,
    std::vector<std::string>& errors);

struct Probe {
  double plan_build_s = 0.0;
  double tables_per_s = 0.0;
  double scalar_s = 0.0;
  double scalar_bp_per_s = 0.0;
  double simd_s = 0.0;
  double simd_bp_per_s = 0.0;
};
/// Single-threaded direct calls into asr (plan build) and backprojection
/// (scalar and SIMD replay), medians over `inputs`.
[[nodiscard]] Probe probe_layers(const std::vector<Scene>& inputs,
                                 SpanLog* spans);

}  // namespace perfbench
