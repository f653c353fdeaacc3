// Private seam between the ASR sweep core's dispatcher (asr_sweep.cpp) and
// the per-ISA kernel translation units (kernel_asr_avx2.cpp with
// -march=x86-64-v3, kernel_asr_avx512.cpp with -march=x86-64-v4). The
// dispatcher resolves host cpuid once and calls through these tables; the
// TUs never run unless selected, so a binary carrying AVX-512 code starts
// fine on an AVX2-only host.
//
// Everything here must stay ISA-neutral: this header is included by TUs
// compiled at three different -march levels, so no intrinsics and no
// vector types — function-pointer tables and constants only (DESIGN.md
// §12, "Per-ISA TUs and ODR"; the `isa-intrinsics` lint rule).
#pragma once

#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "common/types.h"

namespace sarbp::bp::detail {

/// Most tables one vector table build expands at once (AVX-512: 8 f64
/// lanes).
inline constexpr int kMaxTableLanes = 8;

/// One lane group of the table build (AsrIsaOps::build_tables): the
/// block's inputs, which every lane shares, and each lane's pulse. Lanes
/// [count, kMaxTableLanes) repeat lane 0's inputs and write nothing. An
/// aggregate with no member function, so no per-ISA TU emits code for it.
struct TableGroup {
  double centre_x;  ///< the block centre in scene coordinates
  double centre_y;
  double centre_z;
  double spacing;  ///< pixel spacing, dx = dy
  Index width;     ///< the block's extents in the image
  Index height;
  int count;
  double radar_x[kMaxTableLanes];
  double radar_y[kMaxTableLanes];
  double radar_z[kMaxTableLanes];
  double start_range[kMaxTableLanes];
  double bin_spacing[kMaxTableLanes];
  double two_pi_k[kMaxTableLanes];
  double x_inner[kMaxTableLanes];  ///< 1 under x_inner, 0 under y_inner
  /// Each live lane's tables, viewing its extents under its order.
  asr::BlockTables* out[kMaxTableLanes];
};

/// One ISA's row kernels and table build. `acc_re`/`acc_im` are planar
/// accumulation buffers whose row m starts at `acc + m * acc_pitch`
/// (pitch = len_l for the y_inner run workspace, = tile width for in-place
/// accumulation).
struct AsrIsaOps {
  int table_lanes;  ///< f64 lanes, tables per build_tables call (4 or 8)
  /// Samples straight from the AoS pulse buffer, inner loop selected by
  /// `variant`. A row's last partial vector is one masked step.
  void (*rows_aos)(const asr::BlockTables& t, const CFloat* in, Index samples,
                   float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
                   Index len_m, KernelVariant variant);
  /// Builds group.count <= table_lanes table sets, one per f64 lane: the
  /// range quadratic and the seeds (asr/seed_lanes.h), then their
  /// expansion, byte-identical to asr::table_seeds and
  /// asr::expand_table_seeds. Only the live entries are written. Returns
  /// -1, or the first lane whose radar sits on the block centre, having
  /// written nothing: the caller throws range_quadratic's error, since no
  /// exception type may be instantiated in a per-ISA TU.
  int (*build_tables)(const TableGroup& group);
  /// asr::unit_phase of phase[i] into (re[i], im[i]), i < n, in the f64
  /// lanes: the table build's sincos, for the byte tests.
  void (*unit_phases)(const double* phase, double* re, double* im, Index n);
};

#if SARBP_HAVE_KERNEL_AVX2
const AsrIsaOps& asr_isa_ops_avx2();
#endif
#if SARBP_HAVE_KERNEL_AVX512
const AsrIsaOps& asr_isa_ops_avx512();
#endif

}  // namespace sarbp::bp::detail
