// Pluggable tile compute backends (paper §5.3 applied to the serving
// layer): every block-range task of a plan replay targets a TileBackend —
// host scalar, host SIMD (runtime ISA dispatch), or the
// src/offload simulated coprocessor — and the BackendSet routes blocks
// across them with the dynamic split ratio, "adapted based on the
// execution time ratio observed with the first few images".
//
// Layering: a backend is a kernel, a rate prior and a clock; it knows no
// plan. exec::make_formation_group (exec/formation_tasks.h) cuts the
// items into per-backend shares and hands each share's sweeps the
// backend's kernel(); the service's plan-replay body sweeps its blocks
// with that kernel through the one ASR block sweep
// (backprojection/asr_sweep.h) and its own prebuilt tables, so exec needs
// no service types.
//
// Identity contract: blocks cover disjoint pixel rectangles, and every
// backend's kernel gives the bytes of execute_plan's scalar sweep (one ASR
// byte lineage, DESIGN.md §12) — so any assignment of blocks to backends
// produces output byte-identical to a serial execute_plan. The one
// exception is a SIMD backend forced to KernelVariant::kGatherNoFma, whose
// split multiply-adds round differently (>70 dB parity).
//
// Instrumentation (per configured registry):
//   counters   backend.<name>.sweeps
//   gauges     backend.<name>.rate_bp_s, backend.<name>.split_permille
//   histograms backend.<name>.sweep_s (simulated seconds per task sweep)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "offload/device.h"

namespace sarbp::exec {

/// One compute executor. Its tasks' sweeps run concurrently on several
/// workers; the rate tracker is internally synchronized.
class TileBackend {
 public:
  TileBackend(std::string name, double rate_prior, bp::AsrKernel kernel,
              double rate_smoothing, obs::Registry* metrics);
  virtual ~TileBackend() = default;

  TileBackend(const TileBackend&) = delete;
  TileBackend& operator=(const TileBackend&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// The inner loop this backend's sweeps run.
  [[nodiscard]] const bp::AsrKernel& kernel() const { return kernel_; }

  /// Simulated wall seconds for arithmetic that physically took
  /// `measured_seconds` on this host — identity for host backends, the
  /// device-rate rescale for the simulated coprocessor (DESIGN.md §2).
  [[nodiscard]] virtual double simulated_seconds(
      double measured_seconds) const {
    return measured_seconds;
  }

  /// Folds one task's sweep into the observed-rate EMA (§5.3).
  /// `measured_seconds` is host wall time; the backend applies its own
  /// simulated-time scaling before computing the rate.
  void record(double backprojections, double measured_seconds);

  /// Observed backprojections per simulated second; 0 until the first
  /// record().
  [[nodiscard]] double observed_rate() const;

  /// Capability prior in relative rate units (host scalar = 1); seeds the
  /// split until every backend in the set has been observed.
  [[nodiscard]] double rate_prior() const { return rate_prior_; }

  void set_split_gauge(double fraction);

 private:
  const std::string name_;
  const double rate_prior_;
  const bp::AsrKernel kernel_;
  const double rate_smoothing_;
  mutable Mutex mutex_{SARBP_LOCK_LEVEL("exec.backend")};
  double rate_ SARBP_GUARDED_BY(mutex_) = 0.0;

  obs::Counter* sweeps_ = nullptr;
  obs::Gauge* rate_gauge_ = nullptr;
  obs::Gauge* split_gauge_ = nullptr;
  obs::Histogram* sweep_s_ = nullptr;
};

/// Declarative backend description (ServiceConfig-friendly).
struct BackendSpec {
  enum class Kind {
    kHostScalar,  ///< the plan executor's scalar sweep (byte-identical)
    kHostSimd,    ///< vector ASR sweep, runtime ISA dispatch
    kOffloadSim,  ///< simulated coprocessor (scalar sweep, rescaled time)
  };
  Kind kind = Kind::kHostScalar;
  /// Metric/name override; defaults to "scalar" / "simd-<isa>" /
  /// "offload-<device>".
  std::string name;
  // --- kHostSimd knobs ---
  bp::SimdIsa isa = bp::SimdIsa::kAuto;
  bp::KernelVariant variant = bp::KernelVariant::kAuto;
  // --- kOffloadSim knobs ---
  offload::DeviceSpec device = offload::knights_corner();
  offload::DeviceSpec host_model = offload::xeon_e5_2670_dual();
};

[[nodiscard]] std::shared_ptr<TileBackend> make_backend(
    const BackendSpec& spec, double rate_smoothing, obs::Registry* metrics);

/// The routing set: owns the backends and computes the §5.3 dynamic split.
class BackendSet {
 public:
  /// `metrics` null selects the process-global registry.
  BackendSet(const std::vector<BackendSpec>& specs, double rate_smoothing,
             obs::Registry* metrics);

  [[nodiscard]] int size() const { return static_cast<int>(backends_.size()); }
  [[nodiscard]] TileBackend& backend(int i) { return *backends_[i]; }
  [[nodiscard]] const TileBackend& backend(int i) const {
    return *backends_[i];
  }

  /// Current work fractions, one per backend, summing to 1: proportional
  /// to observed rates once *every* backend has been observed, to the
  /// capability priors until then (observing only the fast backend must
  /// not starve the others before they ever run).
  [[nodiscard]] std::vector<double> split() const;

  /// Partitions `n` contiguous work items by the current split. Returns
  /// size()+1 monotone boundaries with front() == 0 and back() == n; also
  /// refreshes the backend.<name>.split_permille gauges.
  [[nodiscard]] std::vector<Index> partition(Index n) const;

 private:
  std::vector<std::shared_ptr<TileBackend>> backends_;
};

}  // namespace sarbp::exec
