// Fast factorized backprojection (two-level) — the hierarchical
// complexity-reduction family of paper §6:
//
//   "Typically, these methods hierarchically decimate the phase history
//    data in the pulse dimension for localized regions of the image in a
//    manner that maintains sampling requirements and preserves image
//    quality. Thus, the larger image formation problem is decomposed into
//    several smaller image formation problems each with a corresponding
//    reduced-size data set. In such cases, traditional backprojection is
//    utilized as a base case operation for the reduced-size data sets."
//
// and the §7 outlook: "When combined with hierarchical backprojection
// techniques, we believe our optimizations will render computationally
// challenging SAR imaging via backprojection considerably more affordable."
//
// Two-level scheme: the image splits into tiles, the aperture into groups
// of `group` consecutive pulses. For each (tile, group), the group's
// pulses are range-aligned and phase-aligned to the tile centre and summed
// into ONE synthetic pulse (the local plane-wave approximation); the ASR
// backprojection kernel then runs as the base case on the N/group
// synthetic pulses. The inner-loop work drops by ~group x; accuracy is
// governed by (group angular extent) x (tile radius), the same
// error-budget game as the ASR block size.
#pragma once

#include "backprojection/kernel.h"
#include "common/grid2d.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

struct FfbpOptions {
  Index tile = 64;        ///< image tile edge (pixels)
  Index group = 4;        ///< pulses combined per synthetic pulse
  Index asr_block = 64;   ///< base-case ASR block size
  /// Extra range bins kept around each tile's range span in the decimated
  /// (tile-local) pulse data.
  Index range_margin_bins = 32;
  /// Band-limited (FFT zero-padding) range upsampling factor applied to
  /// the whole history before combining — "in a manner that maintains
  /// sampling requirements" (§6). The compressed profiles are
  /// near-critically sampled; without upsampling, the extra resampling
  /// stage costs ~20 dB.
  Index oversample = 4;
  /// Retained for the naive sinc-resample variant used in ablations.
  int sinc_taps = 6;
};

/// Forms the full image by two-level factorized backprojection on the
/// calling thread (internally range-upsamples the history by
/// options.oversample first).
Grid2D<CFloat> ffbp_form_image(const sim::PhaseHistory& history,
                               const geometry::ImageGrid& grid,
                               const FfbpOptions& options);

/// Variant consuming data already upsampled by options.oversample —
/// streaming pipelines amortize the FFT upsampling once per pulse batch
/// instead of once per image.
Grid2D<CFloat> ffbp_form_image_upsampled(const sim::PhaseHistory& upsampled,
                                         const geometry::ImageGrid& grid,
                                         const FfbpOptions& options);

/// Analytic worst-case range-alignment error (metres) of combining `group`
/// pulses for a tile of half-diagonal `tile_radius_m` at `slant_range_m`,
/// given the per-pulse angular step: err ~ group_angle * tile_radius.
/// Controls quality exactly as the ASR Taylor remainder does.
double ffbp_alignment_error(Index group, double pulse_angle_step_rad,
                            double tile_radius_m);

/// Inner-loop work model relative to direct backprojection: 1/group for
/// the base case plus the per-tile combining pass.
double ffbp_work_fraction(const FfbpOptions& options, Index pulses,
                          Index image, Index samples_per_tile);

}  // namespace sarbp::bp
