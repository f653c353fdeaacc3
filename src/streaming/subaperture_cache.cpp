#include "streaming/subaperture_cache.h"

#include <cstring>
#include <utility>

#include "common/check.h"

namespace sarbp::streaming {

SubApertureCache::SubApertureCache(SubApertureCacheConfig config)
    : signature_fn_(std::move(config.signature_fn)),
      cache_(config.capacity, "streaming.cache", config.metrics) {}

service::PlanKey SubApertureCache::make_key(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& chunk) const {
  ensure(chunk.num_pulses() > 0, "SubApertureCache::make_key: empty chunk");
  service::PlanKey key =
      service::make_plan_key(grid, region, block_w, block_h, chunk);
  if (signature_fn_) key.pulse_signature = signature_fn_(chunk);
  return key;
}

SubApertureCache::Partial SubApertureCache::find(
    const service::PlanKey& key, const sim::PhaseHistory& chunk) {
  // Everything the sweep reads: the pulse geometry (which fixes the payload
  // size), then the samples.
  const service::PulseGeometry geometry = service::pulse_geometry(chunk);
  const std::size_t n = chunk.payload_bytes();
  const auto entry = cache_.find(key, [&](const Entry& stored) {
    return service::same_pulse_geometry(geometry, *stored.chunk) &&
           (n == 0 || std::memcmp(stored.chunk->pulse(0).data(),
                                  chunk.pulse(0).data(), n) == 0);
  });
  return entry != nullptr ? entry->partial : nullptr;
}

void SubApertureCache::insert(const service::PlanKey& key,
                              std::shared_ptr<const sim::PhaseHistory> chunk,
                              Partial partial) {
  ensure(chunk != nullptr && partial != nullptr,
         "SubApertureCache::insert: null chunk or partial");
  const std::size_t bytes =
      bp::SlidingWindow::batch_bytes(partial->width(), partial->height()) +
      chunk->payload_bytes();
  auto entry = std::make_shared<const Entry>(
      Entry{std::move(chunk), std::move(partial)});
  cache_.insert(key, std::move(entry), bytes);
}

}  // namespace sarbp::streaming
