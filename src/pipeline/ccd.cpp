#include "pipeline/ccd.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace sarbp::pipeline {
namespace {

void validate(const Grid2D<CFloat>& current, const Grid2D<CFloat>& reference,
              const CcdParams& params) {
  ensure(current.same_shape(reference), "ccd: image shapes must match");
  ensure(params.window >= 1 && params.window % 2 == 1,
         "ccd: window must be odd and positive");
}

float coherence(double fg_re, double fg_im, double ff, double gg) {
  const double denom = std::sqrt(ff * gg);
  if (denom <= 0.0) return 0.0;
  const double mag = std::sqrt(fg_re * fg_re + fg_im * fg_im);
  return static_cast<float>(std::min(1.0, mag / denom));
}

}  // namespace

Grid2D<float> ccd_direct(const Grid2D<CFloat>& current,
                         const Grid2D<CFloat>& reference,
                         const CcdParams& params) {
  validate(current, reference, params);
  const Index w = current.width();
  const Index h = current.height();
  const Index half = params.window / 2;
  Grid2D<float> out(w, h);
  for (Index y = 0; y < h; ++y) {
    for (Index x = 0; x < w; ++x) {
      double fg_re = 0.0, fg_im = 0.0, ff = 0.0, gg = 0.0;
      for (Index wy = std::max<Index>(0, y - half);
           wy <= std::min<Index>(h - 1, y + half); ++wy) {
        for (Index wx = std::max<Index>(0, x - half);
             wx <= std::min<Index>(w - 1, x + half); ++wx) {
          const CFloat f = current.at(wx, wy);
          const CFloat g = reference.at(wx, wy);
          // f * conj(g)
          fg_re += static_cast<double>(f.real()) * g.real() +
                   static_cast<double>(f.imag()) * g.imag();
          fg_im += static_cast<double>(f.imag()) * g.real() -
                   static_cast<double>(f.real()) * g.imag();
          ff += static_cast<double>(f.real()) * f.real() +
                static_cast<double>(f.imag()) * f.imag();
          gg += static_cast<double>(g.real()) * g.real() +
                static_cast<double>(g.imag()) * g.imag();
        }
      }
      out.at(x, y) = coherence(fg_re, fg_im, ff, gg);
    }
  }
  return out;
}

Grid2D<float> ccd(const Grid2D<CFloat>& current,
                  const Grid2D<CFloat>& reference, const CcdParams& params) {
  validate(current, reference, params);
  const Index w = current.width();
  const Index h = current.height();
  const Index half = params.window / 2;
  Grid2D<float> out(w, h);

  // Column sums over the vertical window [y-half, y+half] for every x,
  // maintained incrementally as the output row advances (add the entering
  // row, drop the leaving one) — the paper's drop-Ncor/obtain-Ncor update,
  // organized per column.
  std::vector<double> col_fg_re(static_cast<std::size_t>(w), 0.0);
  std::vector<double> col_fg_im(static_cast<std::size_t>(w), 0.0);
  std::vector<double> col_ff(static_cast<std::size_t>(w), 0.0);
  std::vector<double> col_gg(static_cast<std::size_t>(w), 0.0);

  auto add_row = [&](Index y, double sign) {
    for (Index x = 0; x < w; ++x) {
      const CFloat f = current.at(x, y);
      const CFloat g = reference.at(x, y);
      const auto xi = static_cast<std::size_t>(x);
      col_fg_re[xi] += sign * (static_cast<double>(f.real()) * g.real() +
                               static_cast<double>(f.imag()) * g.imag());
      col_fg_im[xi] += sign * (static_cast<double>(f.imag()) * g.real() -
                               static_cast<double>(f.real()) * g.imag());
      col_ff[xi] += sign * (static_cast<double>(f.real()) * f.real() +
                            static_cast<double>(f.imag()) * f.imag());
      col_gg[xi] += sign * (static_cast<double>(g.real()) * g.real() +
                            static_cast<double>(g.imag()) * g.imag());
    }
  };

  // Prime the column sums for output row 0: rows [0, half].
  for (Index y = 0; y <= std::min<Index>(half, h - 1); ++y) add_row(y, +1.0);

  // Horizontal prefix sums reused per output row.
  std::vector<double> pre_fg_re(static_cast<std::size_t>(w) + 1, 0.0);
  std::vector<double> pre_fg_im(static_cast<std::size_t>(w) + 1, 0.0);
  std::vector<double> pre_ff(static_cast<std::size_t>(w) + 1, 0.0);
  std::vector<double> pre_gg(static_cast<std::size_t>(w) + 1, 0.0);

  for (Index y = 0; y < h; ++y) {
    for (Index x = 0; x < w; ++x) {
      const auto xi = static_cast<std::size_t>(x);
      pre_fg_re[xi + 1] = pre_fg_re[xi] + col_fg_re[xi];
      pre_fg_im[xi + 1] = pre_fg_im[xi] + col_fg_im[xi];
      pre_ff[xi + 1] = pre_ff[xi] + col_ff[xi];
      pre_gg[xi + 1] = pre_gg[xi] + col_gg[xi];
    }
    for (Index x = 0; x < w; ++x) {
      const auto lo = static_cast<std::size_t>(std::max<Index>(0, x - half));
      const auto hi = static_cast<std::size_t>(std::min<Index>(w - 1, x + half) + 1);
      out.at(x, y) = coherence(pre_fg_re[hi] - pre_fg_re[lo],
                               pre_fg_im[hi] - pre_fg_im[lo],
                               pre_ff[hi] - pre_ff[lo],
                               pre_gg[hi] - pre_gg[lo]);
    }
    // Slide the vertical window down one row.
    const Index leaving = y - half;
    const Index entering = y + half + 1;
    if (leaving >= 0) add_row(leaving, -1.0);
    if (entering < h) add_row(entering, +1.0);
  }
  return out;
}

}  // namespace sarbp::pipeline
