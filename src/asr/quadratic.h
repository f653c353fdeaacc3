// Second-order Taylor model of the slant-range function — the first step
// of approximate strength reduction (paper §3.2–3.3).
//
// For a pixel block whose pixel (l, m) sits at scene position
//   p(l, m) = base + (l*dx, m*dy, 0),
// the slant range to the radar at p0 is
//   r(l, m) = sqrt((ux + l*dx)^2 + (uy + m*dy)^2 + uz^2),  u = base - p0,
// which is the paper's f(x, y) = sqrt(x^2 + y^2 + alpha^2) with
// x = ux + l*dx, y = uy + m*dy, alpha = |uz|. The quadratic expansion about
// the block centre (paper footnote 4) is
//   r(l, m) ~= f0 + ax*l + ay*m + bx*l^2 + by*m^2 + cxy*l*m
// in *centred* indices l, m in [-L/2, L/2).
#pragma once

#include "common/types.h"
#include "geometry/vec3.h"

namespace sarbp::asr {

/// Coefficients of q(l, m) = f0 + ax l + ay m + bx l^2 + by m^2 + cxy l m.
struct Quadratic2D {
  double f0 = 0.0;
  double ax = 0.0;
  double ay = 0.0;
  double bx = 0.0;
  double by = 0.0;
  double cxy = 0.0;

  [[nodiscard]] double eval(double l, double m) const {
    return f0 + ax * l + ay * m + bx * l * l + by * m * m + cxy * l * m;
  }
};

/// Taylor coefficients of the range function about the point where
/// (l, m) = (0, 0), i.e. about `centre = base` in scene coordinates:
///   u = centre - radar;  f0 = |u|;
///   ax = dx*ux/f0, ay = dy*uy/f0,
///   bx = dx^2/(2 f0) - dx^2 ux^2/(2 f0^3),   (paper §3.3)
///   by = dy^2/(2 f0) - dy^2 uy^2/(2 f0^3),
///   cxy = -dx*dy*ux*uy/f0^3.
/// The operations and their rounding are pinned, nothing fused
/// (asr/seed_lanes.h), so the vector table build repeats them lane for
/// lane. Throws PreconditionError when the radar sits on the centre.
Quadratic2D range_quadratic(const geometry::Vec3& centre,
                            const geometry::Vec3& radar, double dx, double dy);

/// Exact range at centred offsets, for error measurements.
double exact_range(const geometry::Vec3& centre, const geometry::Vec3& radar,
                   double dx, double dy, double l, double m);

/// Upper estimate of the third-order Taylor remainder over a block with
/// centred offsets |l| <= half_l, |m| <= half_m: the worst |r - q| in
/// metres. Evaluates the four distinct third partials of
/// sqrt(x^2+y^2+alpha^2) at the block centre and corners and applies the
/// Lagrange-form bound.
double taylor_remainder_bound(const geometry::Vec3& centre,
                              const geometry::Vec3& radar, double dx,
                              double dy, double half_l, double half_m);

}  // namespace sarbp::asr
