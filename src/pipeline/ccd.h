// Coherent change detection (paper §2): "computes correlations between
// Ncor x Ncor-size windows centered at the same position in the current and
// reference images. Its straightforward implementation requires
// Theta(Ncor^2 Ix Iy) operations, which can be reduced to
// Theta(Ncor Ix Iy) by incrementally computing correlation values."
//
// The correlation coefficient at pixel (x, y) is
//   gamma = |sum f conj(g)| / sqrt(sum |f|^2 * sum |g|^2)
// over the window (paper footnote 7: maintain sum x, sum y, sum x conj(y),
// sum |x|^2, sum |y|^2 incrementally).
//
// Both implementations are provided: the direct quadratic one (ground truth
// for tests and the complexity-ablation bench) and the incremental
// sliding-window one the paper describes.
#pragma once

#include "common/grid2d.h"
#include "common/types.h"

namespace sarbp::pipeline {

struct CcdParams {
  /// Window edge: the paper's Ncor (25 in Table 1). Must be odd.
  Index window = 25;
};

/// Direct evaluation: Theta(Ncor^2) work per pixel, on the calling thread.
Grid2D<float> ccd_direct(const Grid2D<CFloat>& current,
                         const Grid2D<CFloat>& reference,
                         const CcdParams& params);

/// Incremental evaluation (paper footnote 7): per output pixel the window
/// sums are updated by dropping/adding one window column — Theta(Ncor)
/// work per pixel. Column sums themselves are maintained incrementally
/// down the image, so the total is Theta(Ix Iy) amortized.
Grid2D<float> ccd(const Grid2D<CFloat>& current,
                  const Grid2D<CFloat>& reference, const CcdParams& params);

}  // namespace sarbp::pipeline
