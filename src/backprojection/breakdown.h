// Execution-time breakdown instrumentation for the Fig. 7 reproduction:
// how much of the backprojection time goes to square root, argument
// reduction, sine/cosine, interpolation (pulse access), and everything
// else — before (baseline) and after (ASR) strength reduction.
//
// Measured by differential passes over the identical iteration space: each
// pass adds exactly one more inner-loop component, and the component's cost
// is the time difference between consecutive passes. Results feed the
// fig7_asr_breakdown bench.
#pragma once

#include "backprojection/kernel.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

struct BaselineBreakdown {
  double other_s = 0.0;    ///< loop/address/position arithmetic
  double sqrt_s = 0.0;     ///< double-precision range computation
  double interp_s = 0.0;   ///< irregular pulse access + linear interp
  double argred_s = 0.0;   ///< double-precision reduction of 2*pi*k*r
  double sincos_s = 0.0;   ///< polynomial sin/cos + phase multiply
  double total_s = 0.0;    ///< full baseline kernel wall time

  [[nodiscard]] double trig_s() const { return argred_s + sincos_s; }
};

/// Differential breakdown of the baseline kernel over the given workload.
/// Single-threaded by construction (per-component timing).
BaselineBreakdown measure_baseline_breakdown(const sim::PhaseHistory& history,
                                             const geometry::ImageGrid& grid,
                                             const Region& region,
                                             Index pulse_begin,
                                             Index pulse_end);

struct AsrBreakdown {
  double precompute_s = 0.0;  ///< per-block table construction (A..Psi)
  double inner_s = 0.0;       ///< strength-reduced inner loop
  double total_s = 0.0;       ///< full ASR kernel wall time
};

/// Precompute-vs-inner-loop split of the ASR kernel whose sweep runs `isa`
/// (kScalar: the portable sweep). One timed pass of the kernel's block
/// loop: per block, the production table build (bp::build_asr_tables, the
/// widest usable ISA) for every pulse, then the sweep over those tables.
/// The builds are timed inside the total's interval on the same clock, so
/// precompute_s <= total_s and inner_s = total_s - precompute_s >= 0.
AsrBreakdown measure_asr_breakdown(const sim::PhaseHistory& history,
                                   const geometry::ImageGrid& grid,
                                   const Region& region, Index pulse_begin,
                                   Index pulse_end, Index block_w,
                                   Index block_h,
                                   SimdIsa isa = SimdIsa::kScalar);

}  // namespace sarbp::bp
