// The one reuse cache (paper §2 and Fig. 3(b)): a thread-safe LRU of
// immutable shared values filed under a PlanKey — the grid geometry, the
// region, the ASR block size and a 64-bit signature of the pulse geometry.
//
// Two kinds of work are reused under that key. The service reuses a
// request's formation plan, the geometry-only ASR tables
// (service/plan_cache.h), and a streaming session reuses a chunk's swept
// partial image (streaming/subaperture_cache.h). Both are clients of
// ReuseCache, which owns the list, the index, the byte count, eviction and
// the metrics. The key hashes the pulse geometry into 64 bits, so a client
// verifies what the key stands for with an `accept` predicate to find():
// the plan cache compares the pulse geometry, the partial cache the
// geometry and the samples. The `reuse-cache` lint rule keeps any other LRU
// out of src/.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/region.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/vec3.h"
#include "obs/metrics.h"
#include "sim/phase_history.h"

namespace sarbp::service {

/// A history's pulse geometry as 64-bit words: the sampling constants
/// (count, samples per pulse, bin spacing, wavenumber), then each pulse's
/// position and start range, a double as its bits. Every input of the ASR
/// tables except the sample values.
using PulseGeometry = std::vector<std::uint64_t>;

[[nodiscard]] PulseGeometry pulse_geometry(const sim::PhaseHistory& history);

/// FNV-1a over pulse_geometry(history)'s words.
[[nodiscard]] std::uint64_t pulse_geometry_signature(
    const sim::PhaseHistory& history);

/// True when `history`'s pulse geometry is `geometry`, bit for bit.
[[nodiscard]] bool same_pulse_geometry(const PulseGeometry& geometry,
                                       const sim::PhaseHistory& history);

struct PlanKey {
  Index grid_w = 0;
  Index grid_h = 0;
  double spacing = 0.0;
  geometry::Vec3 centre;
  Region region;
  Index block_w = 0;
  Index block_h = 0;
  std::uint64_t pulse_signature = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

[[nodiscard]] PlanKey make_plan_key(const geometry::ImageGrid& grid,
                                    const Region& region, Index block_w,
                                    Index block_h,
                                    const sim::PhaseHistory& history);

/// Thread-safe LRU of shared immutable values under PlanKeys.
///
/// A capacity of 0 keeps nothing: every lookup misses and insert drops
/// the value. The first insert under a key wins; a later value for the
/// same key is released with its last user. insert() evicts beyond
/// capacity, and evicted values are released after the lock drops, so
/// freeing a plan's tables or a partial's tile never stalls another
/// lookup.
///
/// Metrics, named `metric_prefix` + suffix in `metrics` (null selects the
/// process-global registry): .{hits,misses,collisions,inserts,evictions}
/// counters and .{entries,bytes} gauges.
template <class V>
class ReuseCache {
 public:
  using Value = std::shared_ptr<const V>;

  ReuseCache(std::size_t capacity, std::string_view metric_prefix,
             obs::Registry* metrics = nullptr)
      : capacity_(capacity) {
    if constexpr (obs::kEnabled) {
      auto& reg = metrics != nullptr ? *metrics : obs::registry();
      const std::string prefix(metric_prefix);
      hits_ = &reg.counter(prefix + ".hits");
      misses_ = &reg.counter(prefix + ".misses");
      collisions_ = &reg.counter(prefix + ".collisions");
      inserts_ = &reg.counter(prefix + ".inserts");
      evictions_ = &reg.counter(prefix + ".evictions");
      entries_gauge_ = &reg.gauge(prefix + ".entries");
      bytes_gauge_ = &reg.gauge(prefix + ".bytes");
    }
  }

  ReuseCache(const ReuseCache&) = delete;
  ReuseCache& operator=(const ReuseCache&) = delete;

  /// The value under `key`, now the most recently used, or null; counts
  /// the hit or the miss. `accept(const V&)` checks the stored value
  /// against the request. A refusal is a key collision: it counts in
  /// .collisions and as a miss, and the entry keeps its place. `accept`
  /// runs under the cache lock, so the entry it judged is the one promoted,
  /// and must not take a lock.
  template <class Accept>
  [[nodiscard]] Value find(const PlanKey& key, Accept&& accept) {
    {
      MutexLock lock(mutex_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        if (accept(*it->second->value)) {
          lru_.splice(lru_.begin(), lru_, it->second);
          if (hits_) hits_->add();
          return it->second->value;
        }
        if (collisions_) collisions_->add();
      }
    }
    if (misses_) misses_->add();
    return nullptr;
  }

  /// Files `value`, `bytes` resident, under `key` as the most recently
  /// used entry, evicting the least recently used ones beyond capacity.
  /// A key already present keeps its value.
  void insert(const PlanKey& key, Value value, std::size_t bytes) {
    if (capacity_ == 0) return;
    std::list<Entry> evicted;  // destroyed after the lock drops
    MutexLock lock(mutex_);
    if (index_.count(key) != 0) return;
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
    if (inserts_) inserts_->add();
    while (lru_.size() > capacity_) {
      evicted.splice(evicted.end(), lru_, std::prev(lru_.end()));
      bytes_ -= evicted.back().bytes;
      index_.erase(evicted.back().key);
      if (evictions_) evictions_->add();
    }
    if (entries_gauge_) {
      entries_gauge_->set(static_cast<std::int64_t>(lru_.size()));
    }
    if (bytes_gauge_) bytes_gauge_->set(static_cast<std::int64_t>(bytes_));
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return lru_.size();
  }

  [[nodiscard]] std::size_t bytes() const {
    MutexLock lock(mutex_);
    return bytes_;
  }

 private:
  struct Entry {
    PlanKey key;
    Value value;
    std::size_t bytes = 0;
  };

  const std::size_t capacity_;
  mutable Mutex mutex_{SARBP_LOCK_LEVEL("service.reuse_cache")};
  /// Front = most recently used.
  std::list<Entry> lru_ SARBP_GUARDED_BY(mutex_);
  std::unordered_map<PlanKey, typename std::list<Entry>::iterator,
                     PlanKeyHash>
      index_ SARBP_GUARDED_BY(mutex_);
  std::size_t bytes_ SARBP_GUARDED_BY(mutex_) = 0;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* collisions_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace sarbp::service
