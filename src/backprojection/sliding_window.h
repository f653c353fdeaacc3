// Incremental backprojection (paper §2): backproject only the N new
// pulses of an output image and combine them with the previous k batch
// results, valid because backprojection is linear, in "a circular buffer
// that stores the prior k and the current backprojection results".
//
// SlidingWindow is that buffer, shared by the surveillance pipeline, the
// streaming sessions and ablation_incremental: the last `capacity` partial
// images (the paper's k+1) and their running image, which a push slides
// in one image pass. Float addition is not associative, so the running
// image drifts from the re-sum by a bounded error (> 70 dB in the tests)
// until a push anchors it to an exact image. Before any eviction it is the
// re-sum's bytes: both add the partials to +0 in push order.
#pragma once

#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>

#include "common/grid2d.h"
#include "common/types.h"

namespace sarbp::bp {

class SlidingWindow {
 public:
  /// One stored partial image; shared, so a cache can hold it too.
  using Partial = std::shared_ptr<const Grid2D<CFloat>>;

  /// The last `capacity` (>= 1) width x height partials; the running
  /// image starts at zeros.
  SlidingWindow(Index width, Index height, Index capacity);

  /// Stores `partial` as the newest, evicting the oldest beyond capacity.
  /// With `exact` empty the running image slides to (image + partial) -
  /// evicted, per pixel and component in float; otherwise `exact`, an
  /// image of the stored partials formed another way, replaces it unslid
  /// and the drift count restarts.
  void push(Partial partial, Grid2D<CFloat> exact = {});

  /// The straight re-sum of the stored partials, oldest first from +0.
  [[nodiscard]] Grid2D<CFloat> resum() const;

  [[nodiscard]] const Grid2D<CFloat>& image() const { return image_; }
  /// Pushes since the last one with an exact image (or construction).
  [[nodiscard]] Index pushes_since_anchor() const { return since_anchor_; }
  [[nodiscard]] Index stored() const { return std::ssize(partials_); }
  [[nodiscard]] Index capacity() const { return capacity_; }

  /// Bytes of the stored partials (the paper's 100 GB -> 948 GB
  /// capacity-cost discussion, footnote 3); the running image is one
  /// batch_bytes more.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Bytes one partial image occupies; overflow-safe at paper-scale
  /// (57K x 57K) dimensions.
  [[nodiscard]] static std::size_t batch_bytes(Index width, Index height);

 private:
  Index capacity_;
  std::deque<Partial> partials_;
  Grid2D<CFloat> image_;
  Index since_anchor_ = 0;
};

}  // namespace sarbp::bp
