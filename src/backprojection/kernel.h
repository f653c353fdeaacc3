// Backprojection kernels.
//
// Every kernel accumulates the contribution of pulses
// [pulse_begin, pulse_end) onto the pixels of `region`:
//
//   Out[x, y] += interp(In_p, (|p(x,y) - p0_p| - r0_p)/dr)
//                * exp(i * 2*pi*k * |p(x,y) - p0_p|)
//
// The variants differ in how the sqrt / sin / cos / interpolation are
// computed — they are the experimental units of the paper's evaluation:
//
//  - ref:          everything in double precision; ground truth for SNR.
//  - baseline:     the paper's pre-ASR production path — double-precision
//                  range and argument reduction, single-precision
//                  polynomial sin/cos and interpolation (Fig. 7 "before").
//  - baseline all-float: range in single precision — reproduces the 12 dB
//                  accuracy collapse quoted in §5.2.1 / Fig. 8.
//  - asr_scalar:   approximate strength reduction (Fig. 3(b)), portable.
//  - asr_simd:     ASR vectorized with AVX2/AVX-512 over the interleaved
//                  (AoS) pulse data, recurrence stepped by the SIMD width
//                  (§4.4); samples by window loads where the wavefront
//                  order keeps a vector's bins together, by gathers
//                  elsewhere (KernelVariant).
//
// Both ASR kernels are block loops over the one ASR block sweep
// (asr_sweep.h). Float kernels write into a SoaTile covering exactly
// `region` (tile-local coordinates); the caller owns placement and
// reduction. Their `order` fixes the x/y loop order; nullopt gives each
// pulse its wavefront order about the grid centre (geometry/wavefront.h).
#pragma once

#include <optional>

#include "backprojection/soa_tile.h"
#include "common/grid2d.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/wavefront.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

enum class KernelKind {
  kRefDouble,
  kBaseline,
  kBaselineAllFloat,
  kAsrScalar,
  kAsrSimd,
};

/// Human-readable kernel name for benchmark output.
const char* kernel_name(KernelKind kind);

/// Full-double reference (accumulates into a double-precision image).
void backproject_ref(const sim::PhaseHistory& history,
                     const geometry::ImageGrid& grid, const Region& region,
                     Index pulse_begin, Index pulse_end,
                     Grid2D<CDouble>& out);

/// Paper baseline (Fig. 3(a)): mixed precision, polynomial trig.
/// `all_float` switches the range/reduction computation to single
/// precision (the Fig. 8 12 dB data point).
void backproject_baseline(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, bool all_float,
                          std::optional<geometry::LoopOrder> order,
                          SoaTile& out);

/// ASR kernel, portable scalar code (Fig. 3(b)).
/// block_w/block_h: ASR approximation block size (accuracy knob, §3.5).
void backproject_asr_scalar(const sim::PhaseHistory& history,
                            const geometry::ImageGrid& grid,
                            const Region& region, Index pulse_begin,
                            Index pulse_end, Index block_w, Index block_h,
                            std::optional<geometry::LoopOrder> order,
                            SoaTile& out);

/// Which vector ISA the ASR SIMD kernel should run. The per-ISA kernel
/// translation units (kernel_asr_avx2.cpp / kernel_asr_avx512.cpp) are
/// compiled with their own explicit -march and linked unconditionally;
/// selection happens at runtime from host cpuid (src/common/cpu.h), so one
/// binary carries every width — no more compile-time-only dispatch.
enum class SimdIsa {
  kAuto,    ///< widest usable ISA on this host (the default)
  kScalar,  ///< force the portable scalar sweep
  kAvx2,    ///< force the 8-lane AVX2 TU (e.g. AVX2-on-AVX-512-host tests)
  kAvx512,  ///< force the 16-lane AVX-512 TU
};
const char* simd_isa_name(SimdIsa isa);

/// Inner-loop implementation variant of the vector ASR sweep — the §4.4
/// ablation knobs benchmarked in bench/ablation_vectorization. kAuto,
/// kGather and kShuffleTranspose run the same FMA arithmetic in the same
/// order and differ only in how they load In[bin], In[bin+1], so they
/// agree byte for byte.
///  - kAuto: window loads. The default: every SIMD service backend,
///    streaming session and backproject_asr_simd call runs it. When every
///    lane of a vector is in range and all lanes' bins lie in [lo, lo + 6]
///    (AVX-512; AVX2: [lo, lo + 2]), lo the smaller of the first and last
///    lanes' bins, one unaligned load of the 16 (AVX2: 8) floats at In[lo]
///    plus four in-register permutes replace the gathers. The load runs
///    only when lo + 8 <= samples (AVX2: lo + 4), so it stays inside the
///    pulse. Any other vector takes kGather's gathers. The wavefront loop
///    order (§4.3) keeps neighbouring pixels on one bin, so most vectors
///    fit.
///  - kGather: hardware gathers of the interleaved In[bin], In[bin+1]
///    pairs straight from the AoS pulse buffer for every vector (the
///    paper's Knights Corner load, kept as an ablation row).
///  - kShuffleTranspose: one 16-byte contiguous load per lane (the four
///    floats re0,im0,re1,im1 are adjacent in AoS) + an in-register
///    transpose instead of gathers.
///  - kGatherNoFma: gathers with separate mul+add in place of fused
///    multiply-add. Different rounding, so parity with kGather is at SNR
///    level (>70 dB), not bitwise.
enum class KernelVariant { kAuto, kGather, kShuffleTranspose, kGatherNoFma };
const char* kernel_variant_name(KernelVariant variant);

/// True when `isa` can run here: its kernel TU is linked in AND host cpuid
/// reports support. kScalar and kAuto are always available.
bool asr_isa_available(SimdIsa isa);

/// kAuto -> the widest usable ISA (kScalar when none). A concrete request
/// must be available — fails with a clear PreconditionError otherwise
/// (never SIGILL). First use also verifies the build's baseline ISA
/// against the host (cpu.h require_compiled_isa_supported).
SimdIsa asr_resolve_isa(SimdIsa requested);

/// True when a vector (AVX2 or AVX-512) ASR kernel is usable on this host.
bool asr_simd_available();
/// Lane count of the widest usable SIMD kernel (16, 8, or 1 when scalar).
int asr_simd_width();

/// Maps a requested kernel to the one that will actually run here:
/// kAsrSimd degrades to kAsrScalar when no vector ISA is usable
/// (asr_simd_available() is false), so drivers never dispatch the
/// degenerate 1-lane path. Every other kind maps to itself.
[[nodiscard]] inline KernelKind resolve_kernel(KernelKind requested) {
  if (requested == KernelKind::kAsrSimd && !asr_simd_available()) {
    return KernelKind::kAsrScalar;
  }
  return requested;
}

/// ASR kernel, SIMD: builds each (block, pulse) table on the fly and sweeps
/// it with the `isa` rows (kAuto = the widest usable ISA). Runs the scalar
/// sweep when `isa` resolves to kScalar.
void backproject_asr_simd(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, Index block_w, Index block_h,
                          std::optional<geometry::LoopOrder> order,
                          SoaTile& out, SimdIsa isa = SimdIsa::kAuto);

/// FLOPs of one backprojection (pixel, pulse) pair in the ASR inner loop —
/// the paper's §5.2.2 count used for efficiency figures.
inline constexpr double kFlopsPerBackprojection = 38.0;

}  // namespace sarbp::bp
