// Autofocus tests: quadratic phase application round trip, defocus
// injection degrading the image, and entropy-minimizing recovery of an
// unknown injected phase error.
#include <gtest/gtest.h>

#include <cmath>

#include "backprojection/autofocus.h"
#include "common/snr.h"
#include "exec/formation_tasks.h"
#include "quality/metrics.h"
#include "test_helpers.h"

namespace sarbp::bp {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using exec::Backprojector;
using sarbp::testing::make_scenario;

/// A sharp point-target scenario with a long enough aperture that a few
/// radians of quadratic phase visibly defocuses it.
SmallScenario point_scenario() {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 96;
  cfg.perturbation_sigma = 0.0;
  SmallScenario s = make_scenario(cfg);
  sim::Reflector r;
  r.position = s.grid.position(32, 32);
  s.scene = sim::ReflectorScene({r});
  Rng rng(5);
  s.history = sim::collect({}, s.grid, s.scene, s.poses, rng);
  return s;
}

Grid2D<CFloat> form(const SmallScenario& s) {
  BackprojectOptions options;
  options.threads = 1;
  return Backprojector(s.grid, options).form_image(s.history);
}

TEST(Autofocus, QuadraticPhaseRoundTrips) {
  SmallScenario s = point_scenario();
  const auto original = form(s);
  apply_quadratic_phase(s.history, 4.0);
  apply_quadratic_phase(s.history, -4.0);
  const auto restored = form(s);
  EXPECT_GT(snr_db(restored, original), 55.0);
}

TEST(Autofocus, ZeroPhaseIsIdentity) {
  SmallScenario s = point_scenario();
  const auto before = form(s);
  apply_quadratic_phase(s.history, 0.0);
  const auto after = form(s);
  EXPECT_GT(snr_db(after, before), 120.0);
}

TEST(Autofocus, InjectedPhaseErrorDefocuses) {
  SmallScenario s = point_scenario();
  const double clean_contrast = quality::peak_to_mean(form(s));
  const double clean_entropy = quality::image_entropy(form(s));
  apply_quadratic_phase(s.history, 8.0);
  const auto defocused = form(s);
  EXPECT_LT(quality::peak_to_mean(defocused), 0.7 * clean_contrast);
  EXPECT_GT(quality::image_entropy(defocused), clean_entropy + 0.3);
}

TEST(Autofocus, RecoversInjectedQuadraticError) {
  SmallScenario s = point_scenario();
  const double clean_contrast = quality::peak_to_mean(form(s));

  const double injected = 7.5;
  apply_quadratic_phase(s.history, injected);

  BackprojectOptions bp_options;
  bp_options.threads = 1;
  AutofocusOptions options;
  options.search_span_rad = 15.0;
  const AutofocusResult result =
      autofocus_quadratic(s.history, s.grid, bp_options, options);

  // The estimate cancels the injection...
  EXPECT_NEAR(result.edge_phase_rad, -injected, 1.0);
  EXPECT_LT(result.entropy_after, result.entropy_before - 0.2);
  // ...and the corrected image recovers most of the clean contrast.
  const double recovered = quality::peak_to_mean(form(s));
  EXPECT_GT(recovered, 0.7 * clean_contrast);
}

TEST(Autofocus, NoErrorMeansNearZeroCorrection) {
  SmallScenario s = point_scenario();
  BackprojectOptions bp_options;
  bp_options.threads = 1;
  AutofocusOptions options;
  options.search_span_rad = 10.0;
  const AutofocusResult result =
      autofocus_quadratic(s.history, s.grid, bp_options, options);
  EXPECT_NEAR(result.edge_phase_rad, 0.0, 1.0);
}

TEST(Autofocus, RejectsBadOptions) {
  SmallScenario s = point_scenario();
  AutofocusOptions bad;
  bad.coarse_samples = 1;
  EXPECT_THROW((void)autofocus_quadratic(s.history, s.grid, {}, bad),
               PreconditionError);
}

}  // namespace
}  // namespace sarbp::bp
