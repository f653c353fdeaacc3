#include "beamform/beamformer.h"

#include <cmath>
#include <numbers>

#include "asr/block_plan.h"
#include "asr/quadratic.h"
#include "asr/tables.h"
#include "common/aligned.h"
#include "common/check.h"
#include "signal/trig.h"

namespace sarbp::beamform {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void validate(const Transducer& transducer, const ScanRegion& region,
              const ChannelData& data) {
  transducer.validate();
  ensure(region.width > 0 && region.depth > 0 && region.pixel_m > 0,
         "beamform: empty scan region");
  ensure(data.elements() == transducer.elements,
         "beamform: channel count mismatch");
}

}  // namespace

Grid2D<CDouble> beamform_ref(const Transducer& transducer,
                             const ScanRegion& region,
                             const ChannelData& data) {
  validate(transducer, region, data);
  Grid2D<CDouble> out(region.width, region.depth);
  const double spm = transducer.samples_per_metre();
  const double k = transducer.wavenumber();
  const auto last_bin = static_cast<double>(data.samples() - 1);
  for (int e = 0; e < transducer.elements; ++e) {
    const auto channel = data.channel(e);
    const double xe = transducer.element_x(e);
    for (Index iz = 0; iz < region.depth; ++iz) {
      const double z = region.pixel_z(iz);
      for (Index ix = 0; ix < region.width; ++ix) {
        const double x = region.pixel_x(ix);
        const double path = z + std::hypot(x - xe, z);
        const double bin = path * spm;
        if (!(bin >= 0.0 && bin < last_bin)) continue;
        const auto b = static_cast<Index>(bin);
        const double frac = bin - static_cast<double>(b);
        const CFloat v0 = channel[static_cast<std::size_t>(b)];
        const CFloat v1 = channel[static_cast<std::size_t>(b) + 1];
        const CDouble sample{(1.0 - frac) * v0.real() + frac * v1.real(),
                             (1.0 - frac) * v0.imag() + frac * v1.imag()};
        const double phase = kTwoPi * k * path;
        out.at(ix, iz) += CDouble{std::cos(phase), std::sin(phase)} * sample;
      }
    }
  }
  return out;
}

Grid2D<CFloat> beamform_baseline(const Transducer& transducer,
                                 const ScanRegion& region,
                                 const ChannelData& data) {
  validate(transducer, region, data);
  Grid2D<CFloat> out(region.width, region.depth);
  const double spm = transducer.samples_per_metre();
  const double two_pi_k = kTwoPi * transducer.wavenumber();
  const auto last_bin = static_cast<float>(data.samples() - 1);
  for (int e = 0; e < transducer.elements; ++e) {
    const auto channel = data.channel(e);
    const double xe = transducer.element_x(e);
    for (Index iz = 0; iz < region.depth; ++iz) {
      const double z = region.pixel_z(iz);
      for (Index ix = 0; ix < region.width; ++ix) {
        const double x = region.pixel_x(ix);
        const double dx = x - xe;
        const double path = z + std::sqrt(dx * dx + z * z);
        const auto bin = static_cast<float>(path * spm);
        if (!(bin >= 0.0f && bin < last_bin)) continue;
        const auto b = static_cast<Index>(bin);
        const float frac = bin - static_cast<float>(b);
        const CFloat v0 = channel[static_cast<std::size_t>(b)];
        const CFloat v1 = channel[static_cast<std::size_t>(b) + 1];
        const float s_r = v0.real() + frac * (v1.real() - v0.real());
        const float s_i = v0.imag() + frac * (v1.imag() - v0.imag());
        const signal::SinCos sc = signal::sincos_baseline_ep(two_pi_k * path);
        out.at(ix, iz) += CFloat(sc.cos * s_r - sc.sin * s_i,
                                 sc.cos * s_i + sc.sin * s_r);
      }
    }
  }
  return out;
}

Grid2D<CFloat> beamform_asr(const Transducer& transducer,
                            const ScanRegion& region, const ChannelData& data,
                            Index block_x, Index block_z) {
  validate(transducer, region, data);
  ensure(block_x > 0 && block_z > 0, "beamform_asr: blocks must be positive");
  Grid2D<CFloat> out(region.width, region.depth);
  const double dr = 1.0 / transducer.samples_per_metre();
  const double two_pi_k = kTwoPi * transducer.wavenumber();
  const auto last_bin = static_cast<float>(data.samples() - 1);

  const auto blocks =
      asr::plan_blocks(0, 0, region.width, region.depth, block_x, block_z);
  // One block's tables at a time, in a buffer sized for a full block.
  AlignedVector<float> storage(
      asr::BlockTables::footprint_floats(block_x, block_z));

  for (const auto& spec : blocks) {
    asr::BlockTables tables(storage.data(), spec.width, spec.height);
    // Block centre in physical coordinates; l walks x, m walks z.
    const double x_c = region.pixel_x(spec.x0) +
                       0.5 * static_cast<double>(spec.width - 1) * region.pixel_m;
    const double z_c = region.pixel_z(spec.y0) +
                       0.5 * static_cast<double>(spec.height - 1) * region.pixel_m;
    for (int e = 0; e < transducer.elements; ++e) {
      const auto channel = data.channel(e);
      const CFloat* in = channel.data();
      const double xe = transducer.element_x(e);
      // Receive path sqrt((x - xe)^2 + z^2) == the SAR range function with
      // u = (x_c - xe, z_c, 0); the plane-wave transmit path z is linear
      // in m and folds into the quadratic's constant and m-slope.
      asr::Quadratic2D q = asr::range_quadratic(
          {x_c, z_c, 0.0}, {xe, 0.0, 0.0}, region.pixel_m, region.pixel_m);
      q.f0 += z_c;
      q.ay += region.pixel_m;
      asr::build_block_tables_fast(q, /*start_range=*/0.0, dr, two_pi_k,
                              spec.width, spec.height, tables);

      // The paper's row chain: pixel l of row m carries Phi'[l] *
      // Omega[l]^m = Phi'[l] * gamma^l with gamma = Omega[1]^m, so each row
      // steps g by gamma along l from 1, and gamma steps by Omega[1] from
      // row to row. A scalar loop along rows keeps this state in
      // registers, where column chains would keep one per column in memory.
      const bool wide = spec.width > 1;
      const float omega_r = wide ? tables.omega_re[1] : 1.0f;
      const float omega_i = wide ? tables.omega_im[1] : 0.0f;
      float gam_r = 1.0f;
      float gam_i = 0.0f;
      for (Index m = 0; m < spec.height; ++m) {
        const float bin_b = tables.bin_b[static_cast<std::size_t>(m)];
        const float bin_c = tables.bin_c[static_cast<std::size_t>(m)];
        const float psi_r = tables.psi_re[static_cast<std::size_t>(m)];
        const float psi_i = tables.psi_im[static_cast<std::size_t>(m)];
        float g_r = 1.0f;
        float g_i = 0.0f;
        auto row = out.row(spec.y0 + m);
        for (Index l = 0; l < spec.width; ++l) {
          const float bin = tables.bin_a[static_cast<std::size_t>(l)] + bin_b +
                            static_cast<float>(l) * bin_c;
          const float phi_r = tables.phi_re[static_cast<std::size_t>(l)];
          const float phi_i = tables.phi_im[static_cast<std::size_t>(l)];
          const float t_r = phi_r * g_r - phi_i * g_i;
          const float t_i = phi_r * g_i + phi_i * g_r;
          const float a_r = t_r * psi_r - t_i * psi_i;
          const float a_i = t_r * psi_i + t_i * psi_r;
          const float ng_r = g_r * gam_r - g_i * gam_i;
          g_i = g_r * gam_i + g_i * gam_r;
          g_r = ng_r;
          if (bin >= 0.0f && bin < last_bin) {
            const auto b = static_cast<Index>(bin);
            const float frac = bin - static_cast<float>(b);
            const CFloat v0 = in[b];
            const CFloat v1 = in[b + 1];
            const float s_r = v0.real() + frac * (v1.real() - v0.real());
            const float s_i = v0.imag() + frac * (v1.imag() - v0.imag());
            auto& pixel = row[static_cast<std::size_t>(spec.x0 + l)];
            pixel += CFloat(a_r * s_r - a_i * s_i, a_r * s_i + a_i * s_r);
          }
        }
        const float next_r = gam_r * omega_r - gam_i * omega_i;
        gam_i = gam_r * omega_i + gam_i * omega_r;
        gam_r = next_r;
      }
    }
  }
  return out;
}

}  // namespace sarbp::beamform
