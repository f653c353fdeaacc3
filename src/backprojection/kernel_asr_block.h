// Shared scalar ASR building blocks: the per-block range quadratic and the
// per-(block, pulse) inner sweep of the paper's Fig. 3(b).
//
// Two callers compose these the same way but own the tables differently:
//  - kernel_asr_scalar.cpp builds each (block, pulse) table immediately
//    before sweeping it (streaming, nothing retained);
//  - the service's plan replay (service/plan_cache.h) keeps the tables in
//    a plan cached per pulse geometry. On a cache miss each replay task
//    builds its blocks' tables just before sweeping them and the finished
//    plan is retained, so a repeated scene replays them without building.
// Keeping the sweep in one place guarantees the cached-plan path computes
// bit-identical images to the streaming scalar kernel.
#pragma once

#include "asr/quadratic.h"
#include "asr/tables.h"
#include "backprojection/soa_tile.h"
#include "common/types.h"
#include "geometry/vec3.h"
#include "geometry/wavefront.h"

namespace sarbp::bp {

/// Quadratic for a block under the chosen loop order. For kYInner the l/m
/// roles are the image's y/x axes; sqrt(x^2+y^2+alpha^2) is symmetric under
/// swapping its first two arguments, so swapping the horizontal components
/// of both points yields the swapped-axis expansion.
inline asr::Quadratic2D block_range_quadratic(const geometry::Vec3& centre,
                                              const geometry::Vec3& radar,
                                              double spacing,
                                              geometry::LoopOrder order) {
  if (order == geometry::LoopOrder::kXInner) {
    return asr::range_quadratic(centre, radar, spacing, spacing);
  }
  const geometry::Vec3 centre_swapped{centre.y, centre.x, centre.z};
  const geometry::Vec3 radar_swapped{radar.y, radar.x, radar.z};
  return asr::range_quadratic(centre_swapped, radar_swapped, spacing, spacing);
}

/// One (block, pulse) pass of the ASR inner loop, reading prebuilt tables:
///
///   for each m: gamma = 1
///     for each l:
///       bin = A[l] + B[m] + l*C[m]
///       arg = Phi[l] * Psi[m] * gamma;  gamma *= Gamma[m]
///       Out[l, m] += arg * interp(in, bin)
///
/// `in`/`samples`: the pulse's range profile. `x_inner`: loop order the
/// tables were built for (l walks x when true, y otherwise). (bx, by):
/// tile-local block origin; len_l/len_m: table extents under that order.
inline void asr_sweep_block(const asr::BlockTables& tables, const CFloat* in,
                            Index samples, bool x_inner, Index bx, Index by,
                            Index len_l, Index len_m, SoaTile& out) {
  for (Index m = 0; m < len_m; ++m) {
    const float bin_b = tables.bin_b[static_cast<std::size_t>(m)];
    const float bin_c = tables.bin_c[static_cast<std::size_t>(m)];
    const float psi_r = tables.psi_re[static_cast<std::size_t>(m)];
    const float psi_i = tables.psi_im[static_cast<std::size_t>(m)];
    const float gam_r = tables.gam_re[static_cast<std::size_t>(m)];
    const float gam_i = tables.gam_im[static_cast<std::size_t>(m)];
    // Output pointers: l walks x (stride 1) or y (stride tile width).
    float* out_re;
    float* out_im;
    Index stride;
    if (x_inner) {
      out_re = out.row_re(by + m) + bx;
      out_im = out.row_im(by + m) + bx;
      stride = 1;
    } else {
      out_re = out.row_re(by) + bx + m;
      out_im = out.row_im(by) + bx + m;
      stride = out.width();
    }
    float g_r = 1.0f;
    float g_i = 0.0f;
    for (Index l = 0; l < len_l; ++l) {
      const float bin = tables.bin_a[static_cast<std::size_t>(l)] + bin_b +
                        static_cast<float>(l) * bin_c;
      // arg = Phi[l] * Psi[m] * gamma
      const float phi_r = tables.phi_re[static_cast<std::size_t>(l)];
      const float phi_i = tables.phi_im[static_cast<std::size_t>(l)];
      const float t_r = phi_r * g_r - phi_i * g_i;
      const float t_i = phi_r * g_i + phi_i * g_r;
      const float a_r = t_r * psi_r - t_i * psi_i;
      const float a_i = t_r * psi_i + t_i * psi_r;
      // gamma *= Gamma[m]
      const float ng_r = g_r * gam_r - g_i * gam_i;
      g_i = g_r * gam_i + g_i * gam_r;
      g_r = ng_r;
      if (bin >= 0.0f) {
        const auto ibin = static_cast<Index>(bin);
        if (ibin + 1 < samples) {
          const float frac = bin - static_cast<float>(ibin);
          const CFloat v0 = in[ibin];
          const CFloat v1 = in[ibin + 1];
          const float s_r = v0.real() + frac * (v1.real() - v0.real());
          const float s_i = v0.imag() + frac * (v1.imag() - v0.imag());
          out_re[l * stride] += a_r * s_r - a_i * s_i;
          out_im[l * stride] += a_r * s_i + a_i * s_r;
        }
      }
    }
  }
}

}  // namespace sarbp::bp
