#include "pipeline/registration.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/check.h"
#include "exec/formation_tasks.h"
#include "signal/fft2d.h"
#include "signal/interp.h"

namespace sarbp::pipeline {
namespace {

/// Zero-mean magnitude patch of `img`, centred at (cx, cy), into the
/// top-left corner of a zero-padded P x P grid.
void extract_patch(const Grid2D<CFloat>& img, Index cx, Index cy, Index sc,
                   Grid2D<CDouble>& out) {
  out.fill(CDouble{});
  const Index half = sc / 2;
  double mean = 0.0;
  for (Index dy = 0; dy < sc; ++dy) {
    for (Index dx = 0; dx < sc; ++dx) {
      const Index x = std::clamp<Index>(cx - half + dx, 0, img.width() - 1);
      const Index y = std::clamp<Index>(cy - half + dy, 0, img.height() - 1);
      const double mag = std::abs(
          std::complex<double>(img.at(x, y).real(), img.at(x, y).imag()));
      out.at(dx, dy) = CDouble{mag, 0.0};
      mean += mag;
    }
  }
  mean /= static_cast<double>(sc * sc);
  for (Index dy = 0; dy < sc; ++dy) {
    for (Index dx = 0; dx < sc; ++dx) {
      out.at(dx, dy) -= CDouble{mean, 0.0};
    }
  }
}

/// Parabolic sub-sample refinement of a discrete peak: offset in (-0.5, 0.5).
double parabolic_offset(double left, double centre, double right) {
  const double denom = left - 2.0 * centre + right;
  if (std::abs(denom) < 1e-30) return 0.0;
  const double offset = 0.5 * (left - right) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

}  // namespace

Registrar::Registrar(RegistrationParams params) : params_(params) {
  ensure(params_.patch >= 5, "Registrar: patch must be at least 5 pixels");
  ensure(params_.control_points_x >= 1 && params_.control_points_y >= 1,
         "Registrar: need at least one control point per axis");
}

std::vector<ControlPointMatch> Registrar::match_control_points(
    const Grid2D<CFloat>& current, const Grid2D<CFloat>& reference,
    exec::TileExecutor& pool) const {
  ensure(current.same_shape(reference), "Registrar: image shapes must match");
  const Index sc = params_.patch;
  ensure(current.width() > 2 * sc && current.height() > 2 * sc,
         "Registrar: image too small for the patch size");
  // Pad to a power of two >= 2*Sc: linear (non-circular) correlation range
  // of +/- Sc/2 with headroom, and the fast FFT path.
  const auto pad = static_cast<Index>(
      signal::Fft<double>::next_power_of_two(static_cast<std::size_t>(2 * sc)));

  const Index ncx = params_.control_points_x;
  const Index ncy = params_.control_points_y;
  std::vector<ControlPointMatch> matches(static_cast<std::size_t>(ncx * ncy));

  const signal::Fft2D<double> fft(pad, pad);
  exec::parallel_for(pool, ncx * ncy, ncx * ncy, [&](Index point) {
    const Index gx = point % ncx;
    const Index gy = point / ncx;
    // Control points spread over the interior (a patch-wide margin).
    const Index cx = sc + (current.width() - 2 * sc) * (2 * gx + 1) / (2 * ncx);
    const Index cy =
        sc + (current.height() - 2 * sc) * (2 * gy + 1) / (2 * ncy);

    Grid2D<CDouble> cur_patch(pad, pad);
    Grid2D<CDouble> ref_patch(pad, pad);
    extract_patch(current, cx, cy, sc, cur_patch);
    extract_patch(reference, cx, cy, sc, ref_patch);

    double cur_energy = 0.0;
    double ref_energy = 0.0;
    for (Index i = 0; i < cur_patch.size(); ++i) {
      cur_energy += std::norm(cur_patch.flat()[static_cast<std::size_t>(i)]);
      ref_energy += std::norm(ref_patch.flat()[static_cast<std::size_t>(i)]);
    }

    fft.forward(cur_patch);
    fft.forward(ref_patch);
    for (Index i = 0; i < cur_patch.size(); ++i) {
      cur_patch.flat()[static_cast<std::size_t>(i)] *=
          std::conj(ref_patch.flat()[static_cast<std::size_t>(i)]);
    }
    fft.inverse(cur_patch);

    // Peak search over the correlation surface (real part; the inputs
    // are real magnitudes).
    Index px = 0, py = 0;
    double peak = -1e300;
    for (Index y = 0; y < pad; ++y) {
      for (Index x = 0; x < pad; ++x) {
        const double v = cur_patch.at(x, y).real();
        if (v > peak) {
          peak = v;
          px = x;
          py = y;
        }
      }
    }
    auto wrap = [&](Index v) {
      return v >= pad / 2 ? static_cast<double>(v - pad)
                          : static_cast<double>(v);
    };
    auto at_wrapped = [&](Index x, Index y) {
      return cur_patch.at((x % pad + pad) % pad, (y % pad + pad) % pad).real();
    };
    const double sub_x =
        parabolic_offset(at_wrapped(px - 1, py), peak, at_wrapped(px + 1, py));
    const double sub_y =
        parabolic_offset(at_wrapped(px, py - 1), peak, at_wrapped(px, py + 1));

    ControlPointMatch m;
    m.x = static_cast<double>(cx);
    m.y = static_cast<double>(cy);
    // Correlation peak at shift s means current(x) ~ reference(x - s):
    // the current image content sits at +s; sampling current at x + s
    // aligns it with the reference.
    m.dx = wrap(px) + sub_x;
    m.dy = wrap(py) + sub_y;
    const double denom = std::sqrt(cur_energy * ref_energy);
    m.confidence = denom > 0.0 ? std::clamp(peak / denom, 0.0, 1.0) : 0.0;
    matches[static_cast<std::size_t>(point)] = m;
  });
  return matches;
}

AffineTransform Registrar::estimate(
    std::span<const ControlPointMatch> matches) const {
  std::vector<ControlPointMatch> good;
  good.reserve(matches.size());
  for (const auto& m : matches) {
    if (m.confidence >= params_.min_confidence) good.push_back(m);
  }
  ensure(good.size() >= 3,
         "Registrar::estimate: fewer than 3 confident control points");
  return fit_affine(good);
}

Grid2D<CFloat> Registrar::resample(const Grid2D<CFloat>& current,
                                   const AffineTransform& transform,
                                   exec::TileExecutor& pool) const {
  Grid2D<CFloat> out(current.width(), current.height());
  exec::parallel_for(pool, out.height(), 0, [&](Index y) {
    for (Index x = 0; x < out.width(); ++x) {
      double sx = 0.0, sy = 0.0;
      transform.apply(static_cast<double>(x), static_cast<double>(y), sx, sy);
      out.at(x, y) = signal::bilinear(current, sx, sy);
    }
  });
  return out;
}

Grid2D<CFloat> Registrar::register_image(const Grid2D<CFloat>& current,
                                         const Grid2D<CFloat>& reference,
                                         exec::TileExecutor& pool,
                                         AffineTransform* fitted) const {
  const auto matches = match_control_points(current, reference, pool);
  const AffineTransform t = estimate(matches);
  if (fitted != nullptr) *fitted = t;
  return resample(current, t, pool);
}

}  // namespace sarbp::pipeline
