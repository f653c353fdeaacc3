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
//
// The running image is immutable once shared: a holder of shared_image()
// (a streaming snapshot) keeps its bytes while the window moves on, and a
// push slides in place only when the window is the image's one holder.
// A caller that forms the next image itself (a streaming update slides it
// block by block, on many threads, with slide()) hands it to the window
// with the adopting push.
#pragma once

#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>

#include "common/grid2d.h"
#include "common/region.h"
#include "common/types.h"

namespace sarbp::bp {

class SlidingWindow {
 public:
  /// One stored partial image; shared, so a cache can hold it too.
  using Partial = std::shared_ptr<const Grid2D<CFloat>>;
  /// The running image; shared, so a snapshot can hold it too.
  using Image = std::shared_ptr<const Grid2D<CFloat>>;

  /// The last `capacity` (>= 1) width x height partials; the running
  /// image starts at zeros.
  SlidingWindow(Index width, Index height, Index capacity);

  /// Stores `partial` as the newest, evicting the oldest beyond capacity,
  /// and slides the running image to (image + partial) - evicted (slide()
  /// over the whole image): in place when the window is the image's one
  /// holder, else into a new image.
  void push(Partial partial);

  /// Stores `partial` as push(partial) does and adopts `image`, which the
  /// caller formed: that push's slide (`exact` false), or an image of the
  /// stored partials formed another way (`exact` true), which replaces the
  /// running image unslid and restarts the drift count.
  void push(Partial partial, Image image, bool exact);

  /// The partial the next push evicts: the oldest once the window holds
  /// `capacity` partials, null before.
  [[nodiscard]] Partial evicting() const;

  /// out = (prev + add) - sub over `region` (prev + add with `sub` null),
  /// per pixel and component in float, rounded after each operation: the
  /// slide's one arithmetic. The four images share one shape, `out` may
  /// be `prev`, and slides of disjoint regions may run concurrently.
  static void slide(const Grid2D<CFloat>& prev, const Grid2D<CFloat>& add,
                    const Grid2D<CFloat>* sub, Grid2D<CFloat>& out,
                    const Region& region);

  /// The straight re-sum of the stored partials, oldest first from +0.
  [[nodiscard]] Grid2D<CFloat> resum() const;

  [[nodiscard]] const Grid2D<CFloat>& image() const { return *image_; }
  [[nodiscard]] const Image& shared_image() const { return image_; }
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
  Image image_;
  /// image_ when the window allocated it, so a slide may write it in place
  /// once no one else holds it; null for an adopted image.
  Grid2D<CFloat>* own_ = nullptr;
  Index since_anchor_ = 0;
};

}  // namespace sarbp::bp
