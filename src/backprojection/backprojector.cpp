#include "backprojection/backprojector.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "geometry/wavefront.h"

namespace sarbp::bp {

void BackprojectOptions::validate() const {
  ensure(kernel != KernelKind::kRefDouble,
         "BackprojectOptions: kRefDouble accumulates in double; call "
         "backproject_ref instead");
  ensure(asr_block_w > 0 && asr_block_h > 0,
         "BackprojectOptions: ASR block must be positive");
  ensure(pulse_chunk > 0, "BackprojectOptions: pulse chunk must be positive");
}

void run_cube_part(const sim::PhaseHistory& history,
                   const geometry::ImageGrid& grid,
                   const BackprojectOptions& options, const CubePart& part,
                   SoaTile& tile) {
  const KernelKind kernel = resolve_kernel(options.kernel);
  // nullopt: each pulse takes its wavefront order about the grid centre.
  const std::optional<geometry::LoopOrder> order =
      options.dynamic_reorder ? std::nullopt
                              : std::optional(geometry::LoopOrder::kXInner);
  // Cache blocking along the pulse dimension: each chunk sweeps the part's
  // pixel blocks while its slice of In is hot.
  for (Index chunk = part.pulse_begin; chunk < part.pulse_end;
       chunk += options.pulse_chunk) {
    const Index chunk_end =
        std::min(chunk + options.pulse_chunk, part.pulse_end);
    switch (kernel) {
      case KernelKind::kBaseline:
      case KernelKind::kBaselineAllFloat:
        backproject_baseline(history, grid, part.region, chunk, chunk_end,
                             kernel == KernelKind::kBaselineAllFloat, order,
                             tile);
        break;
      case KernelKind::kAsrScalar:
        backproject_asr_scalar(history, grid, part.region, chunk, chunk_end,
                               options.asr_block_w, options.asr_block_h,
                               order, tile);
        break;
      case KernelKind::kAsrSimd:
        backproject_asr_simd(history, grid, part.region, chunk, chunk_end,
                             options.asr_block_w, options.asr_block_h, order,
                             tile);
        break;
      case KernelKind::kRefDouble:
        ensure(false,
               "run_cube_part: use backproject_ref for the double reference");
    }
  }
}

void add_pulses_region(const sim::PhaseHistory& history,
                       const geometry::ImageGrid& grid,
                       const BackprojectOptions& options,
                       const Region& region, Index pulse_begin,
                       Index pulse_end, Grid2D<CFloat>& out) {
  options.validate();
  if (region.empty() || pulse_begin >= pulse_end) return;
  CubePart part;
  part.pulse_begin = pulse_begin;
  part.pulse_end = pulse_end;
  part.region = region;
  SoaTile tile(region.width, region.height);
  run_cube_part(history, grid, options, part, tile);
  tile.accumulate_into(out, region);
}

}  // namespace sarbp::bp
