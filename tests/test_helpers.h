// Shared fixtures for the sarbp test suite: a small, physically calibrated
// imaging scenario (9.6 GHz carrier, ~15 km standoff — the regime DESIGN.md
// §5 calibrates Fig. 8 against) that every kernel/integration test reuses.
#pragma once

#include <algorithm>

#include "common/rng.h"
#include "geometry/grid.h"
#include "geometry/trajectory.h"
#include "sim/collector.h"
#include "sim/scene.h"

namespace sarbp::testing {

struct SmallScenario {
  geometry::ImageGrid grid;
  sim::ReflectorScene scene;
  std::vector<geometry::PulsePose> poses;
  sim::PhaseHistory history;
};

struct ScenarioConfig {
  Index image = 128;
  Index pulses = 64;
  double pixel_spacing = 0.5;  ///< matched to the 300 MHz chirp's c/2B
  sim::CollectionFidelity fidelity = sim::CollectionFidelity::kIdealResponse;
  double perturbation_sigma = 0.05;
  geometry::Vec3 recorded_bias{};
  int clusters = 3;
  double transient_fraction = 0.0;
  std::uint64_t seed = 42;
  // Orbit geometry knobs (defaults reproduce the calibrated scenario).
  double orbit_radius_m = 40000.0;
  double orbit_altitude_m = 8000.0;
  double start_angle_rad = 0.0;
};

inline SmallScenario make_scenario(const ScenarioConfig& cfg = {}) {
  Rng rng(cfg.seed);
  geometry::ImageGrid grid(cfg.image, cfg.image, cfg.pixel_spacing);

  // 40 km standoff default: the range-curvature regime where 64x64 ASR
  // blocks sit at the baseline's ~55 dB operating point (DESIGN.md §5).
  geometry::OrbitParams orbit;
  orbit.radius_m = cfg.orbit_radius_m;
  orbit.altitude_m = cfg.orbit_altitude_m;
  orbit.angular_rate_rad_s = 0.02;
  orbit.prf_hz = 500.0;
  orbit.start_angle_rad = cfg.start_angle_rad;
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = cfg.perturbation_sigma;
  errors.recorded_bias = cfg.recorded_bias;
  auto poses = geometry::circular_orbit(orbit, errors, cfg.pulses, rng);

  sim::ClusterSceneParams scene_params;
  scene_params.clusters = cfg.clusters;
  scene_params.reflectors_per_cluster = 4;
  scene_params.transient_fraction = cfg.transient_fraction;
  auto scene = sim::make_cluster_scene(grid, scene_params, rng);

  sim::CollectorParams collector;
  collector.fidelity = cfg.fidelity;
  auto history = sim::collect(collector, grid, scene, poses, rng);

  return SmallScenario{grid, std::move(scene), std::move(poses),
                       std::move(history)};
}

/// `h` with alternate 8-pulse stretches of recorded positions rotated by
/// 90 degrees about `centre`, so the wavefront loop order switches every 8
/// pulses.
inline sim::PhaseHistory alternate_loop_orders(const sim::PhaseHistory& h,
                                               const geometry::Vec3& centre) {
  sim::PhaseHistory out = h;
  for (Index p = 8; p < out.num_pulses(); p += 16) {
    for (Index q = p; q < std::min(p + 8, out.num_pulses()); ++q) {
      geometry::Vec3& pos = out.meta(q).position;
      pos = {centre.x - (pos.y - centre.y), centre.y + (pos.x - centre.x),
             pos.z};
    }
  }
  return out;
}

}  // namespace sarbp::testing
