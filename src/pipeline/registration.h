// Registration stage (paper §2): "corrects for distortions or
// misalignments in the reconstructed image by aligning it with a reference
// image. This stage involves (1) finding a transformation that matches the
// current image closely to the reference image using Nc Sc x Sc 2D FFTs
// followed by solving linear systems via normal equations with six
// unknowns, and (2) applying the transformation using bilinear
// interpolation for resampling." Both steps run on a pool (the pipeline
// passes its Backprojector's), each item writing its own outputs, so the
// bytes never depend on the pool's width.
#pragma once

#include <vector>

#include "common/grid2d.h"
#include "common/types.h"
#include "exec/executor.h"
#include "pipeline/affine.h"

namespace sarbp::pipeline {

struct RegistrationParams {
  /// Control points per image axis (the paper's Nc is the total count).
  Index control_points_x = 4;
  Index control_points_y = 4;
  /// Registration neighbourhood (patch) edge: the paper's Sc (31 in Table 1).
  Index patch = 31;
  /// Matches whose correlation-peak confidence falls below this are
  /// excluded from the affine fit.
  double min_confidence = 0.1;

  [[nodiscard]] Index total_control_points() const {
    return control_points_x * control_points_y;
  }
};

class Registrar {
 public:
  explicit Registrar(RegistrationParams params);

  /// Matches control-point patches of `current` against `reference` by
  /// FFT cross-correlation of magnitude patches (one Sc x Sc 2D FFT pair
  /// per control point) with sub-pixel parabolic peak refinement, one
  /// control point per task on `pool`.
  [[nodiscard]] std::vector<ControlPointMatch> match_control_points(
      const Grid2D<CFloat>& current, const Grid2D<CFloat>& reference,
      exec::TileExecutor& pool) const;

  /// Estimates the affine alignment from matches (normal equations).
  [[nodiscard]] AffineTransform estimate(
      std::span<const ControlPointMatch> matches) const;

  /// Bilinear-resamples `current` under `transform` so it aligns with the
  /// reference: out(x, y) = current(transform(x, y)), rows on `pool`.
  [[nodiscard]] Grid2D<CFloat> resample(const Grid2D<CFloat>& current,
                                        const AffineTransform& transform,
                                        exec::TileExecutor& pool) const;

  /// Full stage: match, fit, resample. Returns the registered image;
  /// optionally reports the fitted transform.
  [[nodiscard]] Grid2D<CFloat> register_image(
      const Grid2D<CFloat>& current, const Grid2D<CFloat>& reference,
      exec::TileExecutor& pool, AffineTransform* fitted = nullptr) const;

  [[nodiscard]] const RegistrationParams& params() const { return params_; }

 private:
  RegistrationParams params_;
};

}  // namespace sarbp::pipeline
