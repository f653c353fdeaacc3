// The ASR block-sweep core (asr_sweep.h), the backproject_asr_{scalar,simd}
// kernels built on it, and the runtime ISA dispatch (paper §4.4).
//
// The vector row kernels live in the per-ISA translation units
// kernel_asr_avx2.cpp (-march=x86-64-v3) and kernel_asr_avx512.cpp
// (-march=x86-64-v4); this TU is ISA-neutral and picks one at runtime from
// host cpuid, so one binary carries every width. First use also fail-fasts
// (clear PreconditionError, never SIGILL) when the build's *baseline*
// -march exceeds the host.
#include "backprojection/asr_sweep.h"

#include <numbers>

#include "asr/quadratic.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/aligned.h"
#include "common/check.h"
#include "common/cpu.h"

namespace sarbp::bp {
namespace {

/// Host capabilities, resolved once. The first kernel call is the natural
/// fail-fast point for baseline-vs-host mismatch: anything that got this
/// far is about to run vector code.
const CpuInfo& host_caps() {
  static const CpuInfo info = [] {
    require_compiled_isa_supported();
    return cpu_info();
  }();
  return info;
}

/// Ops table for a *concrete* resolved ISA; null for kScalar (and for a
/// vector ISA whose TU was not built into this binary).
const detail::AsrIsaOps* ops_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx512:
#if SARBP_HAVE_KERNEL_AVX512
      return &detail::asr_isa_ops_avx512();
#else
      return nullptr;
#endif
    case SimdIsa::kAvx2:
#if SARBP_HAVE_KERNEL_AVX2
      return &detail::asr_isa_ops_avx2();
#else
      return nullptr;
#endif
    case SimdIsa::kScalar:
    case SimdIsa::kAuto:
      return nullptr;
  }
  return nullptr;
}

/// Quadratic for a block under the chosen loop order. For kYInner the l/m
/// roles are the image's y/x axes; sqrt(x^2+y^2+alpha^2) is symmetric under
/// swapping its first two arguments, so swapping the horizontal components
/// of both points yields the swapped-axis expansion.
asr::Quadratic2D block_range_quadratic(const geometry::Vec3& centre,
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

/// One (block, pulse) pass of the scalar inner loop:
///
///   for each m: gamma = 1
///     for each l:
///       bin = A[l] + B[m] + l*C[m]
///       arg = Phi[l] * Psi[m] * gamma;  gamma *= Gamma[m]
///       Out[l, m] += arg * interp(in, bin)
///
/// `out_re`/`out_im` point at the block's (0, 0) pixel; l steps by
/// `l_stride` and m by `m_stride` floats.
void sweep_rows_scalar(const asr::BlockTables& tables, const CFloat* in,
                       Index samples, float* out_re, float* out_im,
                       Index l_stride, Index m_stride, Index len_l,
                       Index len_m) {
  for (Index m = 0; m < len_m; ++m) {
    const float bin_b = tables.bin_b[static_cast<std::size_t>(m)];
    const float bin_c = tables.bin_c[static_cast<std::size_t>(m)];
    const float psi_r = tables.psi_re[static_cast<std::size_t>(m)];
    const float psi_i = tables.psi_im[static_cast<std::size_t>(m)];
    const float gam_r = tables.gam_re[static_cast<std::size_t>(m)];
    const float gam_i = tables.gam_im[static_cast<std::size_t>(m)];
    float* row_re = out_re + m * m_stride;
    float* row_im = out_im + m * m_stride;
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
          row_re[l * l_stride] += a_r * s_r - a_i * s_i;
          row_im[l * l_stride] += a_r * s_i + a_i * s_r;
        }
      }
    }
  }
}

/// Per-thread sweep scratch, reused across every block a thread sweeps:
/// the tables of the on-the-fly source and the y_inner run workspace.
struct SweepScratch {
  asr::BlockTables tables;
  AlignedVector<float> ws_re;
  AlignedVector<float> ws_im;
};

SweepScratch& thread_scratch() {
  static thread_local SweepScratch scratch;
  return scratch;
}

/// One block's sweep state: the resolved kernel and the open y_inner run.
class BlockSweep {
 public:
  BlockSweep(const asr::BlockSpec& block, Index tile_x0, Index tile_y0,
             const AsrKernel& kernel, SoaTile& tile, SweepScratch& scratch)
      : block_(block),
        bx_(block.x0 - tile_x0),
        by_(block.y0 - tile_y0),
        ops_(ops_for(asr_resolve_isa(kernel.isa))),
        variant_(kernel.variant),
        tile_(tile),
        scratch_(scratch) {}

  /// Accumulates one pulse, whose tables were built for `order`.
  void pulse(const asr::BlockTables& tables, const CFloat* in, Index samples,
             geometry::LoopOrder order) {
    // With fewer than two samples no bin is interpolable; skipping also
    // keeps the shuffle variant's clamped dummy loads in bounds.
    if (samples < 2) return;
    const bool x_inner = order == geometry::LoopOrder::kXInner;
    const Index len_l = x_inner ? block_.width : block_.height;
    const Index len_m = x_inner ? block_.height : block_.width;
    float* out_re = tile_.row_re(by_) + bx_;
    float* out_im = tile_.row_im(by_) + bx_;
    if (ops_ == nullptr) {
      // Scalar: l walks x (stride 1) or y (stride tile width).
      const Index pitch = tile_.width();
      sweep_rows_scalar(tables, in, samples, out_re, out_im,
                        x_inner ? 1 : pitch, x_inner ? pitch : 1, len_l,
                        len_m);
      return;
    }
    if (x_inner) {
      // Rows are contiguous in the tile: accumulate in place with the tile
      // width as the row pitch.
      close_run();
      ops_->rows_aos(tables, in, samples, out_re, out_im, tile_.width(),
                     len_l, len_m, variant_);
      return;
    }
    if (!run_open_) {
      const auto n = static_cast<std::size_t>(len_l * len_m);
      scratch_.ws_re.assign(n, 0.0f);
      scratch_.ws_im.assign(n, 0.0f);
      run_open_ = true;
    }
    ops_->rows_aos(tables, in, samples, scratch_.ws_re.data(),
                   scratch_.ws_im.data(), len_l, len_l, len_m, variant_);
  }

  /// Ends the open y_inner run: flushes the workspace transposed into the
  /// tile (l walks y, m walks x).
  void close_run() {
    if (!run_open_) return;
    run_open_ = false;
    const Index len_l = block_.height;
    const Index len_m = block_.width;
    for (Index m = 0; m < len_m; ++m) {
      const float* src_re = scratch_.ws_re.data() + m * len_l;
      const float* src_im = scratch_.ws_im.data() + m * len_l;
      for (Index l = 0; l < len_l; ++l) {
        tile_.row_re(by_ + l)[bx_ + m] += src_re[l];
        tile_.row_im(by_ + l)[bx_ + m] += src_im[l];
      }
    }
  }

 private:
  const asr::BlockSpec& block_;
  const Index bx_;
  const Index by_;
  const detail::AsrIsaOps* const ops_;
  const KernelVariant variant_;
  SoaTile& tile_;
  SweepScratch& scratch_;
  bool run_open_ = false;
};

/// The backproject_asr_* block loop: every block of `region`, pulses
/// [pulse_begin, pulse_end), a fixed or per-pulse loop order.
void backproject_asr(const sim::PhaseHistory& history,
                     const geometry::ImageGrid& grid, const Region& region,
                     Index pulse_begin, Index pulse_end, Index block_w,
                     Index block_h, std::optional<geometry::LoopOrder> order,
                     SoaTile& out, const AsrKernel& kernel) {
  ensure(pulse_begin >= 0 && pulse_end <= history.num_pulses() &&
             pulse_begin <= pulse_end,
         "backproject_asr: pulse range out of bounds");
  ensure(out.width() == region.width && out.height() == region.height,
         "backproject_asr: tile/region shape mismatch");
  const PulseRange pulses[] = {{&history, pulse_begin, pulse_end}};
  for (const auto& block : asr::plan_blocks(region.x0, region.y0,
                                            region.width, region.height,
                                            block_w, block_h)) {
    sweep_asr_block(block, region.x0, region.y0, grid, pulses, order, kernel,
                    out);
  }
}

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto: return "auto";
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
  }
  return "?";
}

const char* kernel_variant_name(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kAuto: return "auto";
    case KernelVariant::kGather: return "gather";
    case KernelVariant::kShuffleTranspose: return "shuffle";
    case KernelVariant::kGatherNoFma: return "gather-nofma";
  }
  return "?";
}

bool asr_isa_available(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto:
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
      return host_caps().avx2;
    case SimdIsa::kAvx512:
      return host_caps().avx512f;
  }
  return false;
}

SimdIsa asr_resolve_isa(SimdIsa requested) {
  if (requested == SimdIsa::kAuto) {
    if (host_caps().avx512f) return SimdIsa::kAvx512;
    if (host_caps().avx2) return SimdIsa::kAvx2;
    return SimdIsa::kScalar;
  }
  ensure(asr_isa_available(requested),
         "asr_resolve_isa: requested SIMD ISA is not usable here (kernel TU "
         "not built in, or the host cpuid lacks it); query "
         "asr_isa_available first");
  return requested;
}

bool asr_simd_available() {
  return asr_resolve_isa(SimdIsa::kAuto) != SimdIsa::kScalar;
}

int asr_simd_width() { return host_caps().simd_width_floats; }

void build_asr_tables(const geometry::ImageGrid& grid,
                      const asr::BlockSpec& block,
                      const sim::PhaseHistory& history, Index pulse,
                      geometry::LoopOrder order, asr::BlockTables& out) {
  const geometry::Vec3 centre = grid.position_f(
      static_cast<double>(block.x0) +
          0.5 * static_cast<double>(block.width - 1),
      static_cast<double>(block.y0) +
          0.5 * static_cast<double>(block.height - 1));
  // Table extents under the chosen order: l is the inner image axis.
  const bool x_inner = order == geometry::LoopOrder::kXInner;
  const Index len_l = x_inner ? block.width : block.height;
  const Index len_m = x_inner ? block.height : block.width;
  const auto& meta = history.meta(pulse);
  const asr::Quadratic2D q =
      block_range_quadratic(centre, meta.position, grid.spacing(), order);
  asr::build_block_tables_fast(q, meta.start_range_m, history.bin_spacing(),
                               2.0 * std::numbers::pi * history.wavenumber(),
                               len_l, len_m, out);
}

void sweep_asr_block(const asr::BlockSpec& block, Index tile_x0,
                     Index tile_y0, const PlanTables& plan,
                     const PulseRange& pulses, const AsrKernel& kernel,
                     SoaTile& tile) {
  const sim::PhaseHistory& history = *pulses.history;
  BlockSweep sweep(block, tile_x0, tile_y0, kernel, tile, thread_scratch());
  for (Index p = pulses.begin; p < pulses.end; ++p) {
    const auto i = static_cast<std::size_t>(p);
    sweep.pulse(plan.tables[i], history.pulse(p).data(),
                history.samples_per_pulse(), plan.orders[i]);
  }
  sweep.close_run();
}

void sweep_asr_block(const asr::BlockSpec& block, Index tile_x0,
                     Index tile_y0, const geometry::ImageGrid& grid,
                     std::span<const PulseRange> pulses,
                     std::optional<geometry::LoopOrder> order,
                     const AsrKernel& kernel, SoaTile& tile) {
  SweepScratch& scratch = thread_scratch();
  BlockSweep sweep(block, tile_x0, tile_y0, kernel, tile, scratch);
  for (const PulseRange& range : pulses) {
    const sim::PhaseHistory& history = *range.history;
    for (Index p = range.begin; p < range.end; ++p) {
      const geometry::LoopOrder o =
          order ? *order
                : geometry::choose_loop_order(history.meta(p).position,
                                              grid.centre());
      build_asr_tables(grid, block, history, p, o, scratch.tables);
      sweep.pulse(scratch.tables, history.pulse(p).data(),
                  history.samples_per_pulse(), o);
    }
  }
  sweep.close_run();
}

void backproject_asr_scalar(const sim::PhaseHistory& history,
                            const geometry::ImageGrid& grid,
                            const Region& region, Index pulse_begin,
                            Index pulse_end, Index block_w, Index block_h,
                            std::optional<geometry::LoopOrder> order,
                            SoaTile& out) {
  backproject_asr(history, grid, region, pulse_begin, pulse_end, block_w,
                  block_h, order, out, AsrKernel{});
}

void backproject_asr_simd(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, Index block_w, Index block_h,
                          std::optional<geometry::LoopOrder> order,
                          SoaTile& out, SimdIsa isa) {
  backproject_asr(history, grid, region, pulse_begin, pulse_end, block_w,
                  block_h, order, out, AsrKernel{asr_resolve_isa(isa)});
}

}  // namespace sarbp::bp
