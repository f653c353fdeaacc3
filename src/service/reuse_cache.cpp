#include "service/reuse_cache.h"

#include <bit>

namespace sarbp::service {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  // Byte-wise FNV-1a over the 8-byte word.
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

inline std::uint64_t double_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace

std::uint64_t pulse_geometry_signature(const sim::PhaseHistory& history) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(history.num_pulses()));
  fnv_mix(h, static_cast<std::uint64_t>(history.samples_per_pulse()));
  fnv_mix(h, double_bits(history.bin_spacing()));
  fnv_mix(h, double_bits(history.wavenumber()));
  for (Index p = 0; p < history.num_pulses(); ++p) {
    const auto& meta = history.meta(p);
    fnv_mix(h, double_bits(meta.position.x));
    fnv_mix(h, double_bits(meta.position.y));
    fnv_mix(h, double_bits(meta.position.z));
    fnv_mix(h, double_bits(meta.start_range_m));
  }
  return h;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(k.grid_w));
  fnv_mix(h, static_cast<std::uint64_t>(k.grid_h));
  fnv_mix(h, double_bits(k.spacing));
  fnv_mix(h, double_bits(k.centre.x));
  fnv_mix(h, double_bits(k.centre.y));
  fnv_mix(h, double_bits(k.centre.z));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.x0));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.y0));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.width));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.height));
  fnv_mix(h, static_cast<std::uint64_t>(k.block_w));
  fnv_mix(h, static_cast<std::uint64_t>(k.block_h));
  fnv_mix(h, k.pulse_signature);
  return static_cast<std::size_t>(h);
}

PlanKey make_plan_key(const geometry::ImageGrid& grid, const Region& region,
                      Index block_w, Index block_h,
                      const sim::PhaseHistory& history) {
  PlanKey key;
  key.grid_w = grid.width();
  key.grid_h = grid.height();
  key.spacing = grid.spacing();
  key.centre = grid.centre();
  key.region = region;
  key.block_w = block_w;
  key.block_h = block_h;
  key.pulse_signature = pulse_geometry_signature(history);
  return key;
}

}  // namespace sarbp::service
