#include "backprojection/autofocus.h"

#include <cmath>
#include <complex>

#include "common/check.h"
#include "quality/metrics.h"

namespace sarbp::bp {
namespace {

/// Phase profile value for pulse j of n: c * ((j - j0)/j0)^2, j0 = centre.
double quadratic_phase(double edge_phase_rad, Index j, Index n) {
  const double j0 = 0.5 * static_cast<double>(n - 1);
  if (j0 <= 0.0) return 0.0;
  const double t = (static_cast<double>(j) - j0) / j0;
  return edge_phase_rad * t * t;
}

/// Image entropy of `history` corrected by candidate edge phase `c`,
/// evaluated on a working copy (the original stays pristine).
class FocusEvaluator {
 public:
  FocusEvaluator(const sim::PhaseHistory& history,
                 const geometry::ImageGrid& grid,
                 const BackprojectOptions& bp_options, Index pulse_stride)
      : pristine_(history),
        grid_(grid),
        backprojector_(grid, bp_options),
        stride_(pulse_stride) {}

  double entropy_at(double candidate_rad) {
    sim::PhaseHistory working = pristine_;
    apply_quadratic_phase(working, candidate_rad);
    Grid2D<CFloat> image(grid_.width(), grid_.height());
    const Region all{0, 0, grid_.width(), grid_.height()};
    for (Index p = 0; p < working.num_pulses(); p += stride_) {
      backprojector_.add_pulses_region(working, all, p, p + 1, image);
    }
    return quality::image_entropy(image);
  }

 private:
  const sim::PhaseHistory& pristine_;
  geometry::ImageGrid grid_;
  Backprojector backprojector_;
  Index stride_;
};

}  // namespace

void apply_quadratic_phase(sim::PhaseHistory& history, double edge_phase_rad) {
  for (Index j = 0; j < history.num_pulses(); ++j) {
    const double phase = quadratic_phase(edge_phase_rad, j, history.num_pulses());
    const CFloat rot(static_cast<float>(std::cos(phase)),
                     static_cast<float>(std::sin(phase)));
    for (auto& sample : history.pulse(j)) sample *= rot;
  }
}

AutofocusResult autofocus_quadratic(sim::PhaseHistory& history,
                                    const geometry::ImageGrid& grid,
                                    const BackprojectOptions& bp_options,
                                    const AutofocusOptions& options) {
  ensure(history.num_pulses() >= 3, "autofocus: need at least 3 pulses");
  ensure(options.coarse_samples >= 3 && options.refine_iterations >= 1 &&
             options.search_span_rad > 0 && options.pulse_stride >= 1,
         "autofocus: invalid options");

  FocusEvaluator evaluator(history, grid, bp_options, options.pulse_stride);
  AutofocusResult result;
  result.entropy_before = evaluator.entropy_at(0.0);

  // Coarse scan: entropy over c is only locally unimodal, so bracket the
  // global minimum first.
  double best_c = 0.0;
  double best_entropy = result.entropy_before;
  const double span = options.search_span_rad;
  const double step =
      2.0 * span / static_cast<double>(options.coarse_samples - 1);
  for (int i = 0; i < options.coarse_samples; ++i) {
    const double c = -span + static_cast<double>(i) * step;
    const double e = evaluator.entropy_at(c);
    if (e < best_entropy) {
      best_entropy = e;
      best_c = c;
    }
  }

  // Golden-section refinement within +/- one coarse step of the best point.
  constexpr double kGolden = 0.6180339887498949;
  double lo = best_c - step;
  double hi = best_c + step;
  double x1 = hi - kGolden * (hi - lo);
  double x2 = lo + kGolden * (hi - lo);
  double e1 = evaluator.entropy_at(x1);
  double e2 = evaluator.entropy_at(x2);
  for (int i = 0; i < options.refine_iterations; ++i) {
    if (e1 < e2) {
      hi = x2;
      x2 = x1;
      e2 = e1;
      x1 = hi - kGolden * (hi - lo);
      e1 = evaluator.entropy_at(x1);
    } else {
      lo = x1;
      x1 = x2;
      e1 = e2;
      x2 = lo + kGolden * (hi - lo);
      e2 = evaluator.entropy_at(x2);
    }
  }
  const double refined = 0.5 * (lo + hi);
  const double refined_entropy = evaluator.entropy_at(refined);
  if (refined_entropy < best_entropy) {
    best_c = refined;
    best_entropy = refined_entropy;
  }

  result.edge_phase_rad = best_c;
  result.entropy_after = best_entropy;
  apply_quadratic_phase(history, best_c);
  return result;
}

}  // namespace sarbp::bp
