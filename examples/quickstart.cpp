// Quickstart: simulate a spotlight SAR collection over a few point
// reflectors, form the image with ASR backprojection, and render it as
// ASCII art. Shows the minimal end-to-end path through the public API:
//
//   ImageGrid -> circular_orbit -> ReflectorScene -> collect
//            -> Backprojector::form_image
//
// Build & run:  ./build/examples/quickstart
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>

#include "common/rng.h"
#include "exec/formation_tasks.h"
#include "geometry/grid.h"
#include "geometry/trajectory.h"
#include "sim/collector.h"
#include "sim/scene.h"

int main() {
  using namespace sarbp;

  // 1. Imaging geometry: a 96 x 96 pixel grid at 0.5 m spacing, X-band
  //    radar orbiting at 40 km standoff.
  const geometry::ImageGrid grid(96, 96, 0.5);
  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.066;  // enough aperture to resolve 0.5 m
  orbit.prf_hz = 400.0;

  // 2. A scene: three reflectors forming an "L".
  sim::ReflectorScene scene;
  for (auto [px, py] : {std::pair{24, 24}, {24, 72}, {72, 24}}) {
    sim::Reflector r;
    r.position = grid.position(px, py);
    r.amplitude = 2.0;
    scene.add(r);
  }

  // 3. Collect 192 pulses along a (slightly perturbed) orbit and
  //    range-compress them.
  Rng rng(1);
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.05;
  const auto poses = geometry::circular_orbit(orbit, errors, 192, rng);
  sim::CollectorParams collector;
  collector.fidelity = sim::CollectionFidelity::kIdealResponse;
  const sim::PhaseHistory history =
      sim::collect(collector, grid, scene, poses, rng);

  // 4. Backproject (ASR + SIMD on the tile executor by default).
  const exec::Backprojector backprojector(grid, {});
  const Grid2D<CFloat> image = backprojector.form_image(history);

  // 5. Render: 48 x 24 ASCII downsample of the magnitude image.
  std::printf("reconstructed scene (should show three bright points):\n\n");
  const char* shades = " .:-=+*#%@";
  float peak = 0.0f;
  for (const auto& v : image.flat()) peak = std::max(peak, std::abs(v));
  for (Index row = 0; row < 24; ++row) {
    for (Index col = 0; col < 48; ++col) {
      float mag = 0.0f;
      for (Index sy = 0; sy < 4; ++sy) {
        for (Index sx = 0; sx < 2; ++sx) {
          mag = std::max(mag, std::abs(image.at(col * 2 + sx, row * 4 + sy)));
        }
      }
      const int level = std::min<int>(
          9, static_cast<int>(10.0f * std::sqrt(mag / peak)));
      std::putchar(shades[level]);
    }
    std::putchar('\n');
  }

  // 6. Report the focused peaks.
  std::printf("\npeak magnitude %.1f; reflectors at pixels (24,24), (24,72), "
              "(72,24)\n",
              peak);
  for (auto [px, py] : {std::pair{24, 24}, {24, 72}, {72, 24}}) {
    std::printf("  |image(%d, %d)| = %.1f\n", static_cast<int>(px),
                static_cast<int>(py), std::abs(image.at(px, py)));
  }
  return 0;
}
