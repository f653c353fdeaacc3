#include "backprojection/breakdown.h"

#include <chrono>
#include <cmath>
#include <numbers>
#include <vector>

#include "asr/block_plan.h"
#include "asr/tables.h"
#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/aligned.h"
#include "common/check.h"
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
  // The kernels' bin guard: bins in [0, samples - 1), checked before the
  // conversion to Index.
  const auto last_bin = static_cast<float>(history.samples_per_pulse() - 1);
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
        if (bin >= 0.0f && bin < last_bin) {
          const auto ibin = static_cast<Index>(bin);
          const float frac = bin - static_cast<float>(ibin);
          const CFloat v0 = in[ibin];
          const CFloat v1 = in[ibin + 1];
          s_r = v0.real() + frac * (v1.real() - v0.real());
          s_i = v0.imag() + frac * (v1.imag() - v0.imag());
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
                                   Index block_h, SimdIsa isa) {
  ensure(pulse_begin >= 0 && pulse_begin <= pulse_end &&
             pulse_end <= history.num_pulses(),
         "measure_asr_breakdown: pulse range out of bounds");
  using Clock = std::chrono::steady_clock;
  const AsrKernel kernel{asr_resolve_isa(isa)};
  // Tables and orders are indexed by pulse, as a plan's are (PlanTables).
  // Pulse p's tables sit at (p - pulse_begin) * stride of one buffer, room
  // for a full block's; each block views its own extents there.
  const auto pulses = static_cast<std::size_t>(pulse_end);
  const std::size_t stride =
      asr::BlockTables::footprint_floats(block_w, block_h);
  AlignedVector<float> storage(
      stride * static_cast<std::size_t>(pulse_end - pulse_begin));
  std::vector<asr::BlockTables> tables(pulses);
  const std::vector<geometry::LoopOrder> orders(pulses,
                                                geometry::LoopOrder::kXInner);
  std::vector<TableSlot> slots;
  for (Index p = pulse_begin; p < pulse_end; ++p) {
    slots.push_back({&history, p, geometry::LoopOrder::kXInner,
                     &tables[static_cast<std::size_t>(p)]});
  }
  SoaTile tile(region.width, region.height);
  Clock::duration build{};
  const Clock::time_point start = Clock::now();
  for (const auto& block : asr::plan_blocks(region.x0, region.y0,
                                            region.width, region.height,
                                            block_w, block_h)) {
    const Clock::time_point build_start = Clock::now();
    for (Index p = pulse_begin; p < pulse_end; ++p) {
      tables[static_cast<std::size_t>(p)] = asr::BlockTables(
          storage.data() + static_cast<std::size_t>(p - pulse_begin) * stride,
          block.width, block.height);
    }
    build_asr_tables(grid, block, slots);
    build += Clock::now() - build_start;
    sweep_asr_block(block, region.x0, region.y0,
                    PlanTables{tables.data(), orders.data()},
                    PulseRange{&history, pulse_begin, pulse_end}, kernel,
                    tile);
  }
  const Clock::duration total = Clock::now() - start;
  AsrBreakdown b;
  b.precompute_s = std::chrono::duration<double>(build).count();
  b.total_s = std::chrono::duration<double>(total).count();
  b.inner_s = b.total_s - b.precompute_s;
  return b;
}

}  // namespace sarbp::bp
