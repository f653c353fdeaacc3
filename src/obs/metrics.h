// Structured observability: thread-safe counters, gauges, latency
// histograms, and named span timers behind a process-global registry.
//
// The paper validates its pipelined image formation with per-stage timing
// and throughput accounting (Fig. 4, Table 3-5); this module makes that
// telemetry a first-class, always-on subsystem instead of ad-hoc printf
// plumbing. Hot-path cost is one relaxed atomic op per event; compiling
// with SARBP_OBS_ENABLED=0 (-DSARBP_OBS=OFF) reduces every call to an
// empty inline function.
//
// Naming convention: dotted lowercase paths, coarse-to-fine —
// "pipeline.stage.backprojection", "queue.pipeline.image.depth",
// "offload.transfer_s". Histograms of durations carry an "_s" unit suffix
// or live under a ".stage." / "span" path and are recorded in seconds.
#pragma once

#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_annotations.h"

#ifndef SARBP_OBS_ENABLED
#define SARBP_OBS_ENABLED 1
#endif

namespace sarbp::obs {

inline constexpr bool kEnabled = SARBP_OBS_ENABLED != 0;

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    // order: relaxed — independent event count; exporters only need an
    // eventually-consistent value, never ordering against other state.
    if constexpr (kEnabled) value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    // order: relaxed — see add().
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, in-flight frames) with a high-water
/// mark. `set`/`add` are wait-free except for the watermark CAS loop.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if constexpr (kEnabled) {
      // order: relaxed — levels are advisory snapshots; readers tolerate
      // any interleaving of concurrent set()s.
      value_.store(v, std::memory_order_relaxed);
      raise_max(v);
    }
  }

  void add(std::int64_t delta) noexcept {
    if constexpr (kEnabled) {
      const std::int64_t v =
          // order: relaxed — atomic RMW keeps the level exact under
          // concurrent add()s; no cross-variable ordering needed.
          value_.fetch_add(delta, std::memory_order_relaxed) + delta;
      raise_max(v);
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    // order: relaxed — advisory snapshot (see set()).
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    // order: relaxed — advisory snapshot (see set()).
    return max_.load(std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t v) noexcept {
    // order: relaxed CAS loop — the watermark only ever grows; the loop
    // retries until this writer's v is reflected or beaten by a larger one.
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Summary statistics of one histogram, as exported.
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  friend bool operator==(const HistogramStats&, const HistogramStats&) = default;
};

/// Lock-free geometric-bucket histogram for non-negative samples (latency
/// in seconds, rates, byte counts). record() drops NaN and +inf and clamps
/// negatives to 0. Buckets double from kMinValue; the percentile estimate
/// interpolates within the chosen bucket and clamps to the exact observed
/// [min, max].
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr double kMinValue = 1e-9;

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    // order: relaxed — summary statistic; exporters accept slight skew
    // between count_ and the bucket array (documented in DESIGN.md §6).
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// q in [0, 1]; 0 over an empty histogram.
  [[nodiscard]] double percentile(double q) const noexcept;

  [[nodiscard]] HistogramStats stats() const;

 private:
  static int bucket_of(double value) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  // Stored as bit patterns so sum/min/max stay lock-free.
  std::atomic<std::uint64_t> sum_bits_{0};
  std::atomic<std::uint64_t> min_bits_{0x7FF0000000000000ULL};   // +inf
  std::atomic<std::uint64_t> max_bits_{0xFFF0000000000000ULL};   // -inf
};

/// Full point-in-time view of a registry, schema-versioned for export.
struct MetricsSnapshot {
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "sarbp.metrics.v1";

  struct GaugeStats {
    std::int64_t value = 0;
    std::int64_t max = 0;
    friend bool operator==(const GaugeStats&, const GaugeStats&) = default;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeStats> gauges;
  std::map<std::string, HistogramStats> histograms;

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

/// Name -> metric store. Metrics are created on first use and live as long
/// as the registry; returned references stay valid across later calls, so
/// hot paths resolve a name once and keep the pointer.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Drops every metric (tests and repeated bench passes). Invalidates
  /// previously returned references.
  void reset();

 private:
  // Innermost level of the whole hierarchy: metric lookups happen under
  // module locks everywhere (queue depths, job finish stamps), so nothing
  // may be acquired while the registry lock is held.
  mutable Mutex mutex_{SARBP_LOCK_LEVEL("obs.registry")};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      SARBP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      SARBP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      SARBP_GUARDED_BY(mutex_);
};

/// The process-global registry every instrumented layer records into.
Registry& registry();

/// RAII span: records the scope's wall-clock duration (seconds) into a
/// histogram on destruction. Construct from a resolved histogram on hot
/// paths, or by name for one-shot scopes.
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram& sink) : sink_(&sink) { start(); }
  ScopedSpan(Registry& reg, std::string_view name) {
    if constexpr (kEnabled) sink_ = &reg.histogram(name);
    start();
  }
  explicit ScopedSpan(std::string_view name) : ScopedSpan(registry(), name) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { finish(); }

  /// Ends the span early; the destructor then does nothing.
  void finish() noexcept {
    if constexpr (kEnabled) {
      if (sink_ == nullptr) return;
      sink_->record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
      sink_ = nullptr;
    }
  }

 private:
  void start() noexcept {
    if constexpr (kEnabled) start_ = std::chrono::steady_clock::now();
  }

  Histogram* sink_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sarbp::obs
