#include "backprojection/breakdown.h"

#include <cmath>
#include <numbers>

#include "asr/block_plan.h"
#include "asr/tables.h"
#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/timer.h"
#include "signal/trig.h"

namespace sarbp::bp {
namespace {

/// Pass levels: each adds one inner-loop component on top of the previous.
enum class Pass {
  kBase,       // pixel position + squared distance
  kSqrt,       // + double sqrt
  kInterp,     // + bin + irregular access + linear interpolation
  kArgRed,     // + double argument reduction of 2*pi*k*r
};

template <Pass P>
double run_pass(const sim::PhaseHistory& history,
                const geometry::ImageGrid& grid, const Region& region,
                Index pulse_begin, Index pulse_end) {
  const double inv_dr = 1.0 / history.bin_spacing();
  const double two_pi_k = 2.0 * std::numbers::pi * history.wavenumber();
  const Index samples = history.samples_per_pulse();
  // The sink defeats dead-code elimination without polluting the loop with
  // volatile reads.
  double sink = 0.0;
  Timer timer;
  for (Index p = pulse_begin; p < pulse_end; ++p) {
    const auto& meta = history.meta(p);
    const CFloat* in = history.pulse(p).data();
    for (Index y = region.y0; y < region.y0 + region.height; ++y) {
      for (Index x = region.x0; x < region.x0 + region.width; ++x) {
        const geometry::Vec3 pos = grid.position(x, y);
        const double dx = pos.x - meta.position.x;
        const double dy = pos.y - meta.position.y;
        const double dz = pos.z - meta.position.z;
        const double d2 = dx * dx + dy * dy + dz * dz;
        if constexpr (P == Pass::kBase) {
          sink += d2;
          continue;
        }
        const double r = std::sqrt(d2);
        if constexpr (P == Pass::kSqrt) {
          sink += r;
          continue;
        }
        const auto bin = static_cast<float>((r - meta.start_range_m) * inv_dr);
        float s_r = 0.0f;
        float s_i = 0.0f;
        if (bin >= 0.0f) {
          const auto ibin = static_cast<Index>(bin);
          if (ibin + 1 < samples) {
            const float frac = bin - static_cast<float>(ibin);
            const CFloat v0 = in[ibin];
            const CFloat v1 = in[ibin + 1];
            s_r = v0.real() + frac * (v1.real() - v0.real());
            s_i = v0.imag() + frac * (v1.imag() - v0.imag());
          }
        }
        if constexpr (P == Pass::kInterp) {
          sink += s_r + s_i;
          continue;
        }
        const double reduced = signal::reduce_to_pi(two_pi_k * r);
        sink += reduced + s_r + s_i;
      }
    }
  }
  const double elapsed = timer.seconds();
  // Consume the sink so the compiler cannot drop the passes.
  if (sink == 0.12345678901234) return -elapsed;
  return elapsed;
}

}  // namespace

BaselineBreakdown measure_baseline_breakdown(const sim::PhaseHistory& history,
                                             const geometry::ImageGrid& grid,
                                             const Region& region,
                                             Index pulse_begin,
                                             Index pulse_end) {
  BaselineBreakdown b;
  const double t_base = run_pass<Pass::kBase>(history, grid, region,
                                              pulse_begin, pulse_end);
  const double t_sqrt = run_pass<Pass::kSqrt>(history, grid, region,
                                              pulse_begin, pulse_end);
  const double t_interp = run_pass<Pass::kInterp>(history, grid, region,
                                                  pulse_begin, pulse_end);
  const double t_argred = run_pass<Pass::kArgRed>(history, grid, region,
                                                  pulse_begin, pulse_end);
  SoaTile tile(region.width, region.height);
  Timer timer;
  backproject_baseline(history, grid, region, pulse_begin, pulse_end,
                       /*all_float=*/false, geometry::LoopOrder::kXInner,
                       tile);
  const double t_full = timer.seconds();

  auto positive = [](double v) { return v > 0.0 ? v : 0.0; };
  b.other_s = positive(t_base);
  b.sqrt_s = positive(t_sqrt - t_base);
  b.interp_s = positive(t_interp - t_sqrt);
  b.argred_s = positive(t_argred - t_interp);
  b.sincos_s = positive(t_full - t_argred);
  b.total_s = t_full;
  return b;
}

AsrBreakdown measure_asr_breakdown(const sim::PhaseHistory& history,
                                   const geometry::ImageGrid& grid,
                                   const Region& region, Index pulse_begin,
                                   Index pulse_end, Index block_w,
                                   Index block_h) {
  AsrBreakdown b;
  // Precompute-only pass: per-(block, pulse) table construction, nothing
  // else — the cost ASR adds in exchange for removing the math functions.
  {
    const auto blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                         region.height, block_w, block_h);
    asr::BlockTables tables;
    Timer timer;
    for (const auto& block : blocks) {
      for (Index p = pulse_begin; p < pulse_end; ++p) {
        build_asr_tables(grid, block, history, p,
                         geometry::LoopOrder::kXInner, tables);
      }
    }
    b.precompute_s = timer.seconds();
  }
  {
    SoaTile tile(region.width, region.height);
    Timer timer;
    backproject_asr_scalar(history, grid, region, pulse_begin, pulse_end,
                           block_w, block_h, geometry::LoopOrder::kXInner,
                           tile);
    b.total_s = timer.seconds();
  }
  b.inner_s = b.total_s > b.precompute_s ? b.total_s - b.precompute_s : 0.0;
  return b;
}

}  // namespace sarbp::bp
