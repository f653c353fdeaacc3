// Sub-aperture partial-image cache: fixed-size pulse chunks backprojected
// once into partial images and shared across overlapping windows and
// concurrent streaming sessions over the same scene (DESIGN.md §13). A
// window slide that re-admits a chunk another session already swept pays
// O(1), not O(chunk). It is a client of the one reuse cache
// (service/reuse_cache.h), as the service's plan cache is.
//
// Keys are service::PlanKeys: the grid geometry (scene centre included),
// the region, the ASR block size and the chunk's pulse-geometry signature.
// The key leaves out the samples and hashes the geometry into 64 bits, so
// each entry keeps the chunk it was swept from, and a lookup hits only
// when the request's chunk matches it byte for byte on everything the
// sweep reads: the sampling constants, each pulse's position and start
// range, and the samples. A key match that fails the comparison is a
// collision, counted and served as a miss, never a wrong image.
//
// The sweep kernel is not part of the match. Sessions with different
// kernels (scalar and SIMD) that share one cache add each other's
// partials, which differ from their own sweeps in float rounding only:
// their images stay inside the >70 dB drift contract, not bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "backprojection/soa_tile.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "service/reuse_cache.h"
#include "sim/phase_history.h"

namespace sarbp::streaming {

struct SubApertureCacheConfig {
  /// Cached chunk partials; 0 disables retention (every lookup misses —
  /// the bench's cache-off baseline).
  std::size_t capacity = 64;
  /// Metrics sink; null selects the process-global obs::registry().
  obs::Registry* metrics = nullptr;
  /// Test seam: replaces the pulse-geometry signature used in keys (e.g. a
  /// constant function to force collisions). Null selects
  /// service::pulse_geometry_signature.
  std::function<std::uint64_t(const sim::PhaseHistory&)> signature_fn;
};

/// Thread-safe LRU cache of chunk partial images.
///
/// Metrics (under the configured registry):
///   streaming.cache.{hits,misses,evictions,collisions,inserts} counters,
///   streaming.cache.{entries,bytes} gauges; an entry's bytes are its
///   partial's tile plus its chunk's samples.
class SubApertureCache {
 public:
  using Partial = std::shared_ptr<const bp::SoaTile>;

  explicit SubApertureCache(SubApertureCacheConfig config = {});

  /// Key of `chunk`'s partial under the session's scene geometry.
  [[nodiscard]] service::PlanKey make_key(const geometry::ImageGrid& grid,
                                          const Region& region, Index block_w,
                                          Index block_h,
                                          const sim::PhaseHistory& chunk) const;

  /// The partial swept from `chunk`, or null. A key hit whose stored chunk
  /// differs from `chunk` is a collision: counted, and reported as a miss.
  [[nodiscard]] Partial find(const service::PlanKey& key,
                             const sim::PhaseHistory& chunk);

  /// Publishes the partial swept from `chunk`, keeping the chunk for the
  /// comparison in find(). First insert wins when concurrent sessions race
  /// to compute the same chunk; eviction is LRU.
  void insert(const service::PlanKey& key,
              std::shared_ptr<const sim::PhaseHistory> chunk, Partial partial);

  [[nodiscard]] std::size_t size() const { return cache_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const sim::PhaseHistory> chunk;
    Partial partial;
  };

  const std::function<std::uint64_t(const sim::PhaseHistory&)> signature_fn_;
  service::ReuseCache<Entry> cache_;
  obs::Counter* collisions_ = nullptr;
};

}  // namespace sarbp::streaming
