// Paper baseline kernel (Fig. 3(a)): per-pixel sqrt, argument reduction,
// and polynomial sin/cos. The accuracy-critical pieces (range, reduction)
// run in double precision by default; `all_float` demotes them to single
// precision to reproduce the Fig. 8 accuracy collapse.
#include <cmath>
#include <numbers>

#include "backprojection/kernel.h"
#include "common/check.h"
#include "signal/trig.h"

namespace sarbp::bp {
namespace {

struct PulseView {
  const CFloat* in;
  Index samples;
  geometry::Vec3 position;
  double start_range;
};

/// One pixel of baseline backprojection; templated on range precision.
template <bool kAllFloat>
inline void pixel(const PulseView& pulse, const geometry::ImageGrid& grid,
                  double inv_dr, double two_pi_k, Index x, Index y,
                  float* out_re, float* out_im) {
  const geometry::Vec3 pos = grid.position(x, y);
  float bin;
  signal::SinCos sc;
  if constexpr (kAllFloat) {
    const auto dx = static_cast<float>(pos.x - pulse.position.x);
    const auto dy = static_cast<float>(pos.y - pulse.position.y);
    const auto dz = static_cast<float>(pos.z - pulse.position.z);
    const float r = std::sqrt(dx * dx + dy * dy + dz * dz);
    bin = (r - static_cast<float>(pulse.start_range)) *
          static_cast<float>(inv_dr);
    sc = signal::sincos_float_reduction(static_cast<float>(two_pi_k) * r);
  } else {
    const double dx = pos.x - pulse.position.x;
    const double dy = pos.y - pulse.position.y;
    const double dz = pos.z - pulse.position.z;
    const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
    bin = static_cast<float>((r - pulse.start_range) * inv_dr);
    // EP-accuracy polynomial: the trig operating point of the paper's
    // baseline (MKL VML EP equivalence, 55 dB in Fig. 8).
    sc = signal::sincos_baseline_ep(two_pi_k * r);
  }
  if (!(bin >= 0.0f)) return;
  const auto ibin = static_cast<Index>(bin);
  if (ibin + 1 >= pulse.samples) return;
  const float frac = bin - static_cast<float>(ibin);
  const CFloat v0 = pulse.in[ibin];
  const CFloat v1 = pulse.in[ibin + 1];
  const float sr = (1.0f - frac) * v0.real() + frac * v1.real();
  const float si = (1.0f - frac) * v0.imag() + frac * v1.imag();
  *out_re += sc.cos * sr - sc.sin * si;
  *out_im += sc.cos * si + sc.sin * sr;
}

template <bool kAllFloat>
void run(const sim::PhaseHistory& history, const geometry::ImageGrid& grid,
         const Region& region, Index pulse_begin, Index pulse_end,
         std::optional<geometry::LoopOrder> order, SoaTile& out) {
  const double inv_dr = 1.0 / history.bin_spacing();
  const double two_pi_k = 2.0 * std::numbers::pi * history.wavenumber();
  for (Index p = pulse_begin; p < pulse_end; ++p) {
    const auto& meta = history.meta(p);
    const PulseView pulse{history.pulse(p).data(), history.samples_per_pulse(),
                          meta.position, meta.start_range_m};
    const geometry::LoopOrder o =
        order ? *order
              : geometry::choose_loop_order(meta.position, grid.centre());
    if (o == geometry::LoopOrder::kXInner) {
      for (Index ty = 0; ty < region.height; ++ty) {
        float* row_re = out.row_re(ty);
        float* row_im = out.row_im(ty);
        for (Index tx = 0; tx < region.width; ++tx) {
          pixel<kAllFloat>(pulse, grid, inv_dr, two_pi_k, region.x0 + tx,
                           region.y0 + ty, row_re + tx, row_im + tx);
        }
      }
    } else {
      for (Index tx = 0; tx < region.width; ++tx) {
        for (Index ty = 0; ty < region.height; ++ty) {
          pixel<kAllFloat>(pulse, grid, inv_dr, two_pi_k, region.x0 + tx,
                           region.y0 + ty, out.row_re(ty) + tx,
                           out.row_im(ty) + tx);
        }
      }
    }
  }
}

}  // namespace

void backproject_baseline(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, bool all_float,
                          std::optional<geometry::LoopOrder> order,
                          SoaTile& out) {
  ensure(pulse_begin >= 0 && pulse_end <= history.num_pulses() &&
             pulse_begin <= pulse_end,
         "backproject_baseline: pulse range out of bounds");
  ensure(out.width() == region.width && out.height() == region.height,
         "backproject_baseline: tile/region shape mismatch");
  if (all_float) {
    run<true>(history, grid, region, pulse_begin, pulse_end, order, out);
  } else {
    run<false>(history, grid, region, pulse_begin, pulse_end, order, out);
  }
}

}  // namespace sarbp::bp
