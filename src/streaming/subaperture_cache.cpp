#include "streaming/subaperture_cache.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace sarbp::streaming {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// True when `a` and `b` agree bit for bit on everything the sweep reads:
/// the sampling constants, each pulse's position and start range, and the
/// samples.
bool same_sweep_input(const sim::PhaseHistory& a, const sim::PhaseHistory& b) {
  if (a.num_pulses() != b.num_pulses() ||
      a.samples_per_pulse() != b.samples_per_pulse() ||
      !same_bits(a.bin_spacing(), b.bin_spacing()) ||
      !same_bits(a.wavenumber(), b.wavenumber())) {
    return false;
  }
  for (Index p = 0; p < a.num_pulses(); ++p) {
    const sim::PulseMeta& ma = a.meta(p);
    const sim::PulseMeta& mb = b.meta(p);
    if (!same_bits(ma.position.x, mb.position.x) ||
        !same_bits(ma.position.y, mb.position.y) ||
        !same_bits(ma.position.z, mb.position.z) ||
        !same_bits(ma.start_range_m, mb.start_range_m)) {
      return false;
    }
  }
  const std::size_t n = a.payload_bytes();
  return n == 0 || std::memcmp(a.pulse(0).data(), b.pulse(0).data(), n) == 0;
}

}  // namespace

SubApertureCache::SubApertureCache(SubApertureCacheConfig config)
    : signature_fn_(std::move(config.signature_fn)),
      cache_(config.capacity, "streaming.cache", config.metrics) {
  if constexpr (obs::kEnabled) {
    auto& reg = config.metrics != nullptr ? *config.metrics : obs::registry();
    collisions_ = &reg.counter("streaming.cache.collisions");
  }
}

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
  const auto entry = cache_.find(key, [&](const Entry& stored) {
    if (same_sweep_input(*stored.chunk, chunk)) return true;
    if (collisions_) collisions_->add();
    return false;
  });
  return entry != nullptr ? entry->partial : nullptr;
}

void SubApertureCache::insert(const service::PlanKey& key,
                              std::shared_ptr<const sim::PhaseHistory> chunk,
                              Partial partial) {
  ensure(chunk != nullptr && partial != nullptr,
         "SubApertureCache::insert: null chunk or partial");
  const auto pixels = static_cast<std::size_t>(partial->width()) *
                      static_cast<std::size_t>(partial->height());
  const std::size_t bytes = pixels * 2 * sizeof(float) + chunk->payload_bytes();
  auto entry = std::make_shared<const Entry>(
      Entry{std::move(chunk), std::move(partial)});
  cache_.insert(key, std::move(entry), bytes);
}

}  // namespace sarbp::streaming
