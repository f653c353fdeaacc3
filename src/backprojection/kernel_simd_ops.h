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
  /// Expands seeds[i] into *out[i] for i < count <= table_lanes, one table
  /// per f64 lane, byte-identical to asr::expand_table_seeds. Each out[i]
  /// already views seeds[i]'s extents, which may differ per lane; only the
  /// live entries are written.
  void (*build_tables)(const asr::TableSeeds* seeds,
                       asr::BlockTables* const* out, int count);
};

#if SARBP_HAVE_KERNEL_AVX2
const AsrIsaOps& asr_isa_ops_avx2();
#endif
#if SARBP_HAVE_KERNEL_AVX512
const AsrIsaOps& asr_isa_ops_avx512();
#endif

}  // namespace sarbp::bp::detail
