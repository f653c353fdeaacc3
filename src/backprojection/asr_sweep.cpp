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

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
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

/// One (block, pulse) pass of the portable row sweep: the vector rows'
/// operations (kernel_asr_rows.h, strip_impl) one pixel at a time, each
/// column down every row.
///
///   for each l: chi = Phi'[l]
///     for each m:
///       bin = A[l] + B[m] + l*C[m]
///       arg = chi * Psi[m];  chi *= Omega[l]
///       Out[l, m] += arg * interp(in, bin)
///
/// Row m of the accumulator starts at `acc + m * acc_pitch`, l contiguous,
/// as in AsrIsaOps::rows_aos. A bin interpolates when it lies in [0,
/// samples - 1), checked in float before the conversion to Index, so no bin
/// beyond Index's range (nor a NaN) is ever converted; any other pixel
/// keeps its bits.
///
/// Each fused step is an explicit std::fma in the vector rows' form and
/// every other product is rounded where written, so no -ffp-contract or
/// -march setting changes the bytes, and every vector ISA gives them
/// (KernelVariantTest.VectorIsasMatchScalarBytes).
void sweep_rows_scalar(const asr::BlockTables& tables, const CFloat* in,
                       Index samples, float* acc_re, float* acc_im,
                       Index acc_pitch, Index len_l, Index len_m) {
  const auto last_bin = static_cast<float>(samples - 1);
  for (Index l = 0; l < len_l; ++l) {
    const auto i_l = static_cast<std::size_t>(l);
    const float bin_a = tables.bin_a[i_l];
    const float omega_r = tables.omega_re[i_l];
    const float omega_i = tables.omega_im[i_l];
    float chi_r = tables.phi_re[i_l];
    float chi_i = tables.phi_im[i_l];
    for (Index m = 0; m < len_m; ++m) {
      const auto i_m = static_cast<std::size_t>(m);
      const float bin = std::fma(static_cast<float>(l), tables.bin_c[i_m],
                                 bin_a + tables.bin_b[i_m]);
      // arg = chi * Psi[m]
      const float psi_r = tables.psi_re[i_m];
      const float psi_i = tables.psi_im[i_m];
      const float a_r = std::fma(chi_r, psi_r, -(chi_i * psi_i));
      const float a_i = std::fma(chi_r, psi_i, chi_i * psi_r);
      // chi *= Omega[l]
      const float next_r = std::fma(chi_r, omega_r, -(chi_i * omega_i));
      chi_i = std::fma(chi_r, omega_i, chi_i * omega_r);
      chi_r = next_r;
      if (bin >= 0.0f && bin < last_bin) {
        const auto ibin = static_cast<Index>(bin);
        const float frac = bin - static_cast<float>(ibin);
        const CFloat v0 = in[ibin];
        const CFloat v1 = in[ibin + 1];
        const float s_r = std::fma(frac, v1.real() - v0.real(), v0.real());
        const float s_i = std::fma(frac, v1.imag() - v0.imag(), v0.imag());
        acc_re[m * acc_pitch + l] += std::fma(a_r, s_r, -(a_i * s_i));
        acc_im[m * acc_pitch + l] += std::fma(a_r, s_i, a_i * s_r);
      }
    }
  }
}

/// Per-thread sweep scratch, reused across every block a thread sweeps:
/// one lane group of tables for the on-the-fly source, viewing one float
/// buffer, and the y_inner run workspace.
struct SweepScratch {
  AlignedVector<float> table_storage;
  asr::BlockTables tables[detail::kMaxTableLanes];
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
    if (x_inner) {
      // Rows are contiguous in the tile: accumulate in place with the tile
      // width as the row pitch.
      close_run();
      rows(tables, in, samples, tile_.row_re(by_) + bx_,
           tile_.row_im(by_) + bx_, tile_.width(), len_l, len_m);
      return;
    }
    if (!run_open_) {
      const auto n = static_cast<std::size_t>(len_l * len_m);
      scratch_.ws_re.assign(n, 0.0f);
      scratch_.ws_im.assign(n, 0.0f);
      run_open_ = true;
    }
    rows(tables, in, samples, scratch_.ws_re.data(), scratch_.ws_im.data(),
         len_l, len_l, len_m);
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
  /// The resolved kernel's rows: the portable sweep or the ISA's. The
  /// ISA rows hold bins in i32 lanes, so a pulse of more samples than an
  /// i32 holds takes the portable sweep, whose bins are Index.
  void rows(const asr::BlockTables& tables, const CFloat* in, Index samples,
            float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
            Index len_m) const {
    if (ops_ == nullptr ||
        samples > std::numeric_limits<std::int32_t>::max()) {
      sweep_rows_scalar(tables, in, samples, acc_re, acc_im, acc_pitch, len_l,
                        len_m);
    } else {
      ops_->rows_aos(tables, in, samples, acc_re, acc_im, acc_pitch, len_l,
                     len_m, variant_);
    }
  }

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
                      std::span<const TableSlot> slots, SimdIsa isa) {
  const detail::AsrIsaOps* ops = ops_for(asr_resolve_isa(isa));
  const geometry::Vec3 centre = grid.position_f(
      static_cast<double>(block.x0) +
          0.5 * static_cast<double>(block.width - 1),
      static_cast<double>(block.y0) +
          0.5 * static_cast<double>(block.height - 1));
  // Table extents under the slot's order: l is the inner image axis.
  for (const TableSlot& slot : slots) {
    const bool x_inner = slot.order == geometry::LoopOrder::kXInner;
    ensure(slot.out->width == (x_inner ? block.width : block.height) &&
               slot.out->height == (x_inner ? block.height : block.width),
           "build_asr_tables: a slot's tables must view its extents");
  }
  const auto two_pi_k = [](const sim::PhaseHistory& history) {
    return 2.0 * std::numbers::pi * history.wavenumber();
  };
  if (ops == nullptr) {
    for (const TableSlot& slot : slots) {
      const sim::PhaseHistory& history = *slot.history;
      const auto& meta = history.meta(slot.pulse);
      asr::expand_table_seeds(
          asr::table_seeds(block_range_quadratic(centre, meta.position,
                                                 grid.spacing(), slot.order),
                           meta.start_range_m, history.bin_spacing(),
                           two_pi_k(history), slot.out->width,
                           slot.out->height),
          *slot.out);
    }
    return;
  }
  detail::TableGroup group{};
  group.centre_x = centre.x;
  group.centre_y = centre.y;
  group.centre_z = centre.z;
  group.spacing = grid.spacing();
  group.width = block.width;
  group.height = block.height;
  const auto lanes = static_cast<std::size_t>(ops->table_lanes);
  for (std::size_t first = 0; first < slots.size(); first += lanes) {
    const std::size_t count = std::min(lanes, slots.size() - first);
    group.count = static_cast<int>(count);
    for (std::size_t i = 0; i < lanes; ++i) {
      const TableSlot& slot = slots[first + (i < count ? i : 0)];
      const sim::PhaseHistory& history = *slot.history;
      const auto& meta = history.meta(slot.pulse);
      group.radar_x[i] = meta.position.x;
      group.radar_y[i] = meta.position.y;
      group.radar_z[i] = meta.position.z;
      group.start_range[i] = meta.start_range_m;
      group.bin_spacing[i] = history.bin_spacing();
      group.two_pi_k[i] = two_pi_k(history);
      group.x_inner[i] = slot.order == geometry::LoopOrder::kXInner ? 1.0 : 0.0;
      group.out[i] = slot.out;
    }
    // The lanes refuse a radar on the block centre; the error is thrown
    // here, outside the per-ISA TUs.
    ensure(ops->build_tables(group) < 0,
           "range_quadratic: radar coincides with block centre");
  }
}

void unit_phases(std::span<const double> phase, std::span<double> re,
                 std::span<double> im, SimdIsa isa) {
  ensure(re.size() == phase.size() && im.size() == phase.size(),
         "unit_phases: outputs must match the phases");
  if (const detail::AsrIsaOps* ops = ops_for(asr_resolve_isa(isa))) {
    ops->unit_phases(phase.data(), re.data(), im.data(),
                     static_cast<Index>(phase.size()));
    return;
  }
  for (std::size_t i = 0; i < phase.size(); ++i) {
    const std::complex<double> u = asr::unit_phase(phase[i]);
    re[i] = u.real();
    im[i] = u.imag();
  }
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
  // Up to kMaxTableLanes pulses at a time: one AVX-512 lane group, two
  // AVX2 ones. Slot i's tables sit at i * stride, room for either order.
  const std::size_t stride =
      std::max(asr::BlockTables::footprint_floats(block.width, block.height),
               asr::BlockTables::footprint_floats(block.height, block.width));
  if (scratch.table_storage.size() < stride * detail::kMaxTableLanes) {
    scratch.table_storage.resize(stride * detail::kMaxTableLanes);
  }
  TableSlot group[detail::kMaxTableLanes];
  std::size_t count = 0;
  const auto build_and_sweep = [&] {
    build_asr_tables(grid, block, std::span(group, count));
    for (const TableSlot& slot : std::span(group, count)) {
      const sim::PhaseHistory& history = *slot.history;
      sweep.pulse(*slot.out, history.pulse(slot.pulse).data(),
                  history.samples_per_pulse(), slot.order);
    }
    count = 0;
  };
  for (const PulseRange& range : pulses) {
    const sim::PhaseHistory& history = *range.history;
    for (Index p = range.begin; p < range.end; ++p) {
      const geometry::LoopOrder o =
          order ? *order
                : geometry::choose_loop_order(history.meta(p).position,
                                              grid.centre());
      const bool x_inner = o == geometry::LoopOrder::kXInner;
      scratch.tables[count] = asr::BlockTables(
          scratch.table_storage.data() + count * stride,
          x_inner ? block.width : block.height,
          x_inner ? block.height : block.width);
      group[count] = {&history, p, o, &scratch.tables[count]};
      if (++count == std::size(group)) build_and_sweep();
    }
  }
  build_and_sweep();
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
