#include <cmath>
#include <numbers>

#include "backprojection/kernel.h"
#include "common/check.h"

namespace sarbp::bp {

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kRefDouble: return "ref-double";
    case KernelKind::kBaseline: return "baseline";
    case KernelKind::kBaselineAllFloat: return "baseline-all-float";
    case KernelKind::kAsrScalar: return "asr-scalar";
    case KernelKind::kAsrSimd: return "asr-simd";
  }
  return "unknown";
}

void backproject_ref(const sim::PhaseHistory& history,
                     const geometry::ImageGrid& grid, const Region& region,
                     Index pulse_begin, Index pulse_end,
                     Grid2D<CDouble>& out) {
  ensure(pulse_begin >= 0 && pulse_end <= history.num_pulses() &&
             pulse_begin <= pulse_end,
         "backproject_ref: pulse range out of bounds");
  ensure(out.width() == grid.width() && out.height() == grid.height(),
         "backproject_ref: output is full-image sized");
  const double inv_dr = 1.0 / history.bin_spacing();
  const double two_pi_k = 2.0 * std::numbers::pi * history.wavenumber();
  const Index samples = history.samples_per_pulse();

  for (Index p = pulse_begin; p < pulse_end; ++p) {
    const auto& meta = history.meta(p);
    const auto in = history.pulse(p);
    for (Index y = region.y0; y < region.y0 + region.height; ++y) {
      for (Index x = region.x0; x < region.x0 + region.width; ++x) {
        const geometry::Vec3 pos = grid.position(x, y);
        const double r = geometry::distance(pos, meta.position);
        const double bin = (r - meta.start_range_m) * inv_dr;
        // Checked before the conversion, so no bin beyond Index's range is
        // cast.
        if (!(bin >= 0.0 && bin < static_cast<double>(samples - 1))) continue;
        const auto ibin = static_cast<Index>(bin);
        const double frac = bin - static_cast<double>(ibin);
        const CFloat v0 = in[static_cast<std::size_t>(ibin)];
        const CFloat v1 = in[static_cast<std::size_t>(ibin) + 1];
        const CDouble sample{
            (1.0 - frac) * v0.real() + frac * v1.real(),
            (1.0 - frac) * v0.imag() + frac * v1.imag()};
        const double phase = two_pi_k * r;
        const CDouble arg{std::cos(phase), std::sin(phase)};
        out.at(x, y) += arg * sample;
      }
    }
  }
}

}  // namespace sarbp::bp
