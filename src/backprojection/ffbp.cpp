#include "backprojection/ffbp.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "asr/block_plan.h"
#include "common/check.h"
#include "signal/interp.h"

namespace sarbp::bp {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

}  // namespace

double ffbp_alignment_error(Index group, double pulse_angle_step_rad,
                            double tile_radius_m) {
  // A pulse at angular offset dtheta from the group reference sees a pixel
  // at tile-radius u with range differing from the plane-wave estimate by
  // ~u * dtheta (cross-range projection rotation). Worst pulse offset:
  // (group/2) steps.
  return 0.5 * static_cast<double>(group) * pulse_angle_step_rad *
         tile_radius_m;
}

double ffbp_work_fraction(const FfbpOptions& options, Index pulses,
                          Index image, Index samples_per_tile) {
  const double direct = static_cast<double>(pulses) *
                        static_cast<double>(image) *
                        static_cast<double>(image);
  const double tiles =
      std::ceil(static_cast<double>(image) / static_cast<double>(options.tile));
  const double combine = tiles * tiles * static_cast<double>(pulses) *
                         static_cast<double>(samples_per_tile);
  const double base_case = direct / static_cast<double>(options.group);
  return (combine + base_case) / direct;
}

Grid2D<CFloat> ffbp_form_image(const sim::PhaseHistory& history,
                               const geometry::ImageGrid& grid,
                               const FfbpOptions& options) {
  ensure(options.oversample > 0, "ffbp: oversample must be positive");
  ensure(history.num_pulses() > 0, "ffbp: empty history");
  // Band-limited range upsampling first (spectral zero-padding): the
  // compressed profiles are near-critically sampled, and the extra
  // resampling stage FFBP introduces would otherwise cost several dB.
  return ffbp_form_image_upsampled(history.upsampled(options.oversample),
                                   grid, options);
}

Grid2D<CFloat> ffbp_form_image_upsampled(const sim::PhaseHistory& upsampled,
                                         const geometry::ImageGrid& grid,
                                         const FfbpOptions& options) {
  ensure(options.tile > 0 && options.group > 0 && options.asr_block > 0 &&
             options.oversample > 0 && options.sinc_taps >= 1,
         "ffbp: options must be positive");
  ensure(upsampled.num_pulses() > 0, "ffbp: empty history");
  const Index pulses = upsampled.num_pulses();
  const Index groups = (pulses + options.group - 1) / options.group;
  const double dr_syn = upsampled.bin_spacing();
  const double two_pi_k = kTwoPi * upsampled.wavenumber();

  Grid2D<CFloat> out(grid.width(), grid.height());
  const auto tiles = asr::plan_blocks(0, 0, grid.width(), grid.height(),
                                      options.tile, options.tile);

  // Tiles are disjoint image regions with private decimated histories.
  for (std::size_t tile_index = 0; tile_index < tiles.size(); ++tile_index) {
    const auto& tile = tiles[tile_index];
    const geometry::Vec3 centre = grid.position_f(
        static_cast<double>(tile.x0) + 0.5 * static_cast<double>(tile.width - 1),
        static_cast<double>(tile.y0) + 0.5 * static_cast<double>(tile.height - 1));
    const double tile_radius =
        0.5 * grid.spacing() *
        std::hypot(static_cast<double>(tile.width),
                   static_cast<double>(tile.height));

    // Per-group reference pulses and their centre ranges. Every synthetic
    // pulse carries its own start range (centred on its reference pulse's
    // tile-centre range), so the tile-local window length depends only on
    // the tile size — not on the range walk across the whole aperture.
    std::vector<Index> refs(static_cast<std::size_t>(groups));
    std::vector<double> ref_range(static_cast<std::size_t>(groups));
    for (Index g = 0; g < groups; ++g) {
      const Index begin = g * options.group;
      const Index end = std::min(begin + options.group, pulses);
      const Index ref = begin + (end - begin) / 2;
      refs[static_cast<std::size_t>(g)] = ref;
      ref_range[static_cast<std::size_t>(g)] =
          geometry::distance(centre, upsampled.meta(ref).position);
    }
    const double margin =
        tile_radius + static_cast<double>(options.range_margin_bins) * dr_syn;
    const auto tile_samples =
        static_cast<Index>(std::ceil(2.0 * margin / dr_syn)) + 1;

    // --- Level 1: decimate the group's pulses into one synthetic pulse
    // aligned to the tile centre (local plane-wave approximation), written
    // on the oversampled range grid.
    sim::PhaseHistory decimated(groups, tile_samples, dr_syn,
                                upsampled.wavenumber());
    for (Index g = 0; g < groups; ++g) {
      const Index begin = g * options.group;
      const Index end = std::min(begin + options.group, pulses);
      const Index ref = refs[static_cast<std::size_t>(g)];
      const double r_start = ref_range[static_cast<std::size_t>(g)] - margin;
      auto& meta = decimated.meta(g);
      meta.position = upsampled.meta(ref).position;
      meta.start_range_m = r_start;
      meta.time_s = upsampled.meta(ref).time_s;
      auto synthetic = decimated.pulse(g);

      for (Index j = begin; j < end; ++j) {
        const double delta =
            geometry::distance(centre, upsampled.meta(j).position) -
            ref_range[static_cast<std::size_t>(g)];
        const double phase = two_pi_k * delta;
        const CFloat rot(static_cast<float>(std::cos(phase)),
                         static_cast<float>(std::sin(phase)));
        const auto src = upsampled.pulse(j);
        const double src0 =
            (r_start + delta - upsampled.meta(j).start_range_m) / dr_syn;
        for (Index b = 0; b < tile_samples; ++b) {
          const double sb = src0 + static_cast<double>(b);
          // Linear interpolation is accurate here: the data is band-
          // limited-upsampled, so per-bin phase rotation is small.
          const CFloat sample = signal::linear_interp<float>(src, sb);
          synthetic[static_cast<std::size_t>(b)] += sample * rot;
        }
      }
    }

    // --- Level 2: standard (ASR, SIMD) backprojection as the base case.
    const Region region{tile.x0, tile.y0, tile.width, tile.height};
    SoaTile acc(region.width, region.height);
    backproject_asr_simd(decimated, grid, region, 0, groups,
                         options.asr_block, options.asr_block,
                         geometry::LoopOrder::kXInner, acc);
    acc.accumulate_into(out, region);
  }
  return out;
}

}  // namespace sarbp::bp
