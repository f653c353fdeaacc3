#include "obs/metrics.h"

#include <bit>
#include <cmath>

namespace sarbp::obs {
namespace {

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Lower bound of bucket i (geometric, doubling from kMinValue).
double bucket_floor(int i) {
  return i == 0 ? 0.0
               : Histogram::kMinValue * std::ldexp(1.0, i - 1);
}

}  // namespace

int Histogram::bucket_of(double value) noexcept {
  if (!(value > kMinValue)) return 0;  // includes 0, negatives, NaN
  const int idx = 1 + std::ilogb(value / kMinValue);
  return idx >= kBuckets ? kBuckets - 1 : idx;
}

void Histogram::record(double value) noexcept {
  if constexpr (!kEnabled) {
    (void)value;
    return;
  }
  // NaN and +inf are dropped: sum and max must stay JSON numbers.
  if (std::isnan(value) || (std::isinf(value) && value > 0.0)) return;
  if (value < 0.0) value = 0.0;
  // order: relaxed — per-bucket event count; exporters accept slight skew
  // between buckets and count_ (eventually-consistent summaries).
  buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
      1, std::memory_order_relaxed);
  // order: relaxed — see the bucket increment above.
  count_.fetch_add(1, std::memory_order_relaxed);

  // CAS loops over the double bit patterns; relaxed is fine — readers only
  // need eventually-consistent summary values.
  // order: relaxed CAS — atomicity alone makes the add lossless; no
  // ordering against the bucket counts is required.
  std::uint64_t seen = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(seen, to_bits(from_bits(seen) + value),
                                          std::memory_order_relaxed)) {
  }
  // order: relaxed CAS — monotone watermark, same argument as Gauge::max.
  seen = min_bits_.load(std::memory_order_relaxed);
  while (value < from_bits(seen) &&
         !min_bits_.compare_exchange_weak(seen, to_bits(value),
                                          std::memory_order_relaxed)) {
  }
  // order: relaxed CAS — monotone watermark, same argument as Gauge::max.
  seen = max_bits_.load(std::memory_order_relaxed);
  while (value > from_bits(seen) &&
         !max_bits_.compare_exchange_weak(seen, to_bits(value),
                                          std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const noexcept {
  // order: relaxed — eventually-consistent summary (see record()).
  return from_bits(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::min() const noexcept {
  // order: relaxed — eventually-consistent summary (see record()).
  return count() == 0 ? 0.0
                      : from_bits(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const noexcept {
  // order: relaxed — eventually-consistent summary (see record()).
  return count() == 0 ? 0.0
                      : from_bits(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket =
        // order: relaxed — eventually-consistent summary (see record()).
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target) {
      // Linear interpolation to the bucket's upper edge, clamped to the
      // exact observed range.
      const double lo = bucket_floor(i);
      const double hi = i + 1 < kBuckets ? bucket_floor(i + 1) : max();
      const double frac =
          1.0 - (static_cast<double>(cumulative) - target) /
                    static_cast<double>(in_bucket);
      double estimate = lo + (hi - lo) * frac;
      if (estimate < min()) estimate = min();
      if (estimate > max()) estimate = max();
      return estimate;
    }
  }
  return max();
}

HistogramStats Histogram::stats() const {
  HistogramStats s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

namespace {

// Callers hold the registry mutex; the maps are guarded members passed by
// reference under it.
template <class Map>
auto& get_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  if constexpr (!kEnabled) {
    static Counter disabled;
    return disabled;
  }
  MutexLock lock(mutex_);
  return get_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  if constexpr (!kEnabled) {
    static Gauge disabled;
    return disabled;
  }
  MutexLock lock(mutex_);
  return get_or_create(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  if constexpr (!kEnabled) {
    static Histogram disabled;
    return disabled;
  }
  MutexLock lock(mutex_);
  return get_or_create(histograms_, name);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = {g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->stats();
  return snap;
}

void Registry::reset() {
  MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

Registry& registry() {
  static Registry global;
  return global;
}

}  // namespace sarbp::obs
