#include "asr/quadratic.h"

#include <algorithm>
#include <cmath>

namespace sarbp::asr {
namespace {

/// |f_xxx|, |f_xxy|, |f_xyy|, |f_yyy| of f = sqrt(x^2 + y^2 + a^2).
struct ThirdPartials {
  double xxx;
  double xxy;
  double xyy;
  double yyy;
};

ThirdPartials third_partials(double x, double y, double a2) {
  const double f2 = x * x + y * y + a2;
  const double f = std::sqrt(f2);
  const double f5 = f2 * f2 * f;
  ThirdPartials p;
  p.xxx = std::abs(-3.0 * x * (y * y + a2) / f5);
  p.yyy = std::abs(-3.0 * y * (x * x + a2) / f5);
  p.xxy = std::abs(y * (2.0 * x * x - y * y - a2) / f5);
  p.xyy = std::abs(x * (2.0 * y * y - x * x - a2) / f5);
  return p;
}

}  // namespace

// range_quadratic is defined in tables.cpp, beside the table seeds: both
// instantiate asr/seed_lanes.h with the one scalar lane type, so its
// rounding is the vector table build's.

double exact_range(const geometry::Vec3& centre, const geometry::Vec3& radar,
                   double dx, double dy, double l, double m) {
  const geometry::Vec3 p = centre + geometry::Vec3{l * dx, m * dy, 0.0};
  return geometry::distance(p, radar);
}

double taylor_remainder_bound(const geometry::Vec3& centre,
                              const geometry::Vec3& radar, double dx,
                              double dy, double half_l, double half_m) {
  const geometry::Vec3 u = centre - radar;
  const double a2 = u.z * u.z;
  const double hx = half_l * std::abs(dx);
  const double hy = half_m * std::abs(dy);
  // Third partials evaluated at the centre and the four block corners;
  // over a block far smaller than the standoff they vary by O(h/r), so the
  // corner/centre max with a modest safety factor dominates the true
  // supremum. Tests verify bound >= measured across geometries.
  ThirdPartials worst{0, 0, 0, 0};
  const double xs[] = {u.x, u.x - hx, u.x + hx, u.x - hx, u.x + hx};
  const double ys[] = {u.y, u.y - hy, u.y + hy, u.y + hy, u.y - hy};
  for (int i = 0; i < 5; ++i) {
    const ThirdPartials p = third_partials(xs[i], ys[i], a2);
    worst.xxx = std::max(worst.xxx, p.xxx);
    worst.xxy = std::max(worst.xxy, p.xxy);
    worst.xyy = std::max(worst.xyy, p.xyy);
    worst.yyy = std::max(worst.yyy, p.yyy);
  }
  constexpr double kSafety = 1.25;
  return kSafety / 6.0 *
         (worst.xxx * hx * hx * hx + 3.0 * worst.xxy * hx * hx * hy +
          3.0 * worst.xyy * hx * hy * hy + worst.yyy * hy * hy * hy);
}

}  // namespace sarbp::asr
