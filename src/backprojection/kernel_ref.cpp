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
  // grid.position(x, y), the range to the radar and the complex product,
  // spelt out so that each fused step is an explicit std::fma and every
  // other product is rounded where written; this TU is compiled with
  // -ffp-contract=off, so no change around it and no -march moves a byte
  // of the reference. The forms are the ones GCC 12 contracted these
  // expressions to before they were pinned.
  const double spacing = grid.spacing();
  const geometry::Vec3& centre = grid.centre();
  const double half_w = 0.5 * static_cast<double>(grid.width() - 1);
  const auto last_row = static_cast<double>(grid.height() - 1);

  for (Index p = pulse_begin; p < pulse_end; ++p) {
    const auto& meta = history.meta(p);
    const auto in = history.pulse(p);
    for (Index y = region.y0; y < region.y0 + region.height; ++y) {
      const double pos_y = std::fma(
          spacing, std::fma(-0.5, last_row, static_cast<double>(y)), centre.y);
      const double dy = pos_y - meta.position.y;
      const double dz = centre.z - meta.position.z;
      for (Index x = region.x0; x < region.x0 + region.width; ++x) {
        const double pos_x =
            std::fma(spacing, static_cast<double>(x) - half_w, centre.x);
        const double dx = pos_x - meta.position.x;
        const double r = std::sqrt(std::fma(dx, dx, dy * dy) + dz * dz);
        const double bin = (r - meta.start_range_m) * inv_dr;
        // Checked before the conversion, so no bin beyond Index's range is
        // cast.
        if (!(bin >= 0.0 && bin < static_cast<double>(samples - 1))) continue;
        const auto ibin = static_cast<Index>(bin);
        const double frac = bin - static_cast<double>(ibin);
        const CFloat v0 = in[static_cast<std::size_t>(ibin)];
        const CFloat v1 = in[static_cast<std::size_t>(ibin) + 1];
        // (1 - frac) * v0 + frac * v1, per component
        const double s_r = std::fma(1.0 - frac, static_cast<double>(v0.real()),
                                    frac * static_cast<double>(v1.real()));
        const double s_i = std::fma(1.0 - frac, static_cast<double>(v0.imag()),
                                    frac * static_cast<double>(v1.imag()));
        // Out += exp(i * 2 pi k r) * sample
        const double phase = two_pi_k * r;
        const double c = std::cos(phase);
        const double s = std::sin(phase);
        out.at(x, y) +=
            CDouble{std::fma(c, s_r, -(s * s_i)), std::fma(s, s_r, c * s_i)};
      }
    }
  }
}

}  // namespace sarbp::bp
