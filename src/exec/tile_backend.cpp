#include "exec/tile_backend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace sarbp::exec {

TileBackend::TileBackend(std::string name, double rate_prior,
                         bp::AsrKernel kernel, double rate_smoothing,
                         obs::Registry* metrics)
    : name_(std::move(name)),
      rate_prior_(rate_prior),
      kernel_(kernel),
      rate_smoothing_(rate_smoothing) {
  ensure(rate_prior_ > 0, "TileBackend: rate prior must be positive");
  ensure(rate_smoothing_ > 0 && rate_smoothing_ <= 1,
         "TileBackend: rate smoothing in (0, 1]");
  if constexpr (obs::kEnabled) {
    auto& reg = metrics != nullptr ? *metrics : obs::registry();
    sweeps_ = &reg.counter("backend." + name_ + ".sweeps");
    rate_gauge_ = &reg.gauge("backend." + name_ + ".rate_bp_s");
    split_gauge_ = &reg.gauge("backend." + name_ + ".split_permille");
    sweep_s_ = &reg.histogram("backend." + name_ + ".sweep_s");
  }
}

void TileBackend::record(double backprojections, double measured_seconds) {
  const double simulated = simulated_seconds(measured_seconds);
  double smoothed;
  {
    MutexLock lock(mutex_);
    totals_.backprojections += backprojections;
    totals_.simulated_seconds += simulated;
    if (simulated <= 0.0 || backprojections <= 0.0) return;
    const double observed = backprojections / simulated;
    rate_ = rate_ <= 0.0 ? observed
                         : rate_smoothing_ * observed +
                               (1.0 - rate_smoothing_) * rate_;
    smoothed = rate_;
  }
  if (sweeps_) sweeps_->add();
  if (sweep_s_) sweep_s_->record(simulated);
  if (rate_gauge_) rate_gauge_->set(static_cast<std::int64_t>(smoothed));
}

double TileBackend::observed_rate() const {
  MutexLock lock(mutex_);
  return rate_;
}

TileBackend::Totals TileBackend::totals() const {
  MutexLock lock(mutex_);
  return totals_;
}

void TileBackend::set_split_gauge(double fraction) {
  if (split_gauge_) {
    split_gauge_->set(static_cast<std::int64_t>(std::llround(fraction * 1000)));
  }
}

namespace {

/// Lane count of the resolved ISA — the capability prior for a SIMD
/// backend relative to the scalar one.
double simd_rate_prior(bp::SimdIsa isa) {
  switch (isa) {
    case bp::SimdIsa::kAvx512: return 16.0;
    case bp::SimdIsa::kAvx2: return 8.0;
    default: return 1.0;
  }
}

/// Simulated coprocessor: the arithmetic physically runs on this host
/// (scalar sweep, so abort/checkpoint latency stays block-bounded); its
/// *simulated* time is the measured time rescaled by the device/host
/// effective-rate ratio, which is what the split adapts to. PCIe framing
/// costs are frame-level: OffloadRuntime (offload_runtime.h) adds them on
/// top of this clock (DESIGN.md §12).
class OffloadSimBackend final : public TileBackend {
 public:
  OffloadSimBackend(std::string name, offload::DeviceSpec device,
                    offload::DeviceSpec host_model, double rate_smoothing,
                    obs::Registry* metrics)
      : TileBackend(std::move(name),
                    device.effective_gflops() / host_model.effective_gflops(),
                    bp::AsrKernel{}, rate_smoothing, metrics),
        device_(std::move(device)),
        host_model_(std::move(host_model)) {
    device_.validate();
    host_model_.validate();
  }

  [[nodiscard]] double simulated_seconds(
      double measured_seconds) const override {
    return offload::simulated_compute_seconds(device_, host_model_,
                                              measured_seconds);
  }

 private:
  offload::DeviceSpec device_;
  offload::DeviceSpec host_model_;
};

}  // namespace

std::shared_ptr<TileBackend> make_backend(const BackendSpec& spec,
                                          double rate_smoothing,
                                          obs::Registry* metrics) {
  switch (spec.kind) {
    case BackendSpec::Kind::kHostScalar:
      return std::make_shared<TileBackend>(
          spec.name.empty() ? "scalar" : spec.name, 1.0, bp::AsrKernel{},
          rate_smoothing, metrics);
    case BackendSpec::Kind::kHostSimd: {
      const bp::SimdIsa isa = bp::asr_resolve_isa(spec.isa);
      return std::make_shared<TileBackend>(
          spec.name.empty() ? std::string("simd-") + bp::simd_isa_name(isa)
                            : spec.name,
          simd_rate_prior(isa), bp::AsrKernel{isa, spec.variant},
          rate_smoothing, metrics);
    }
    case BackendSpec::Kind::kOffloadSim: {
      const std::string name = spec.name.empty()
                                   ? "offload-" + spec.device.name
                                   : spec.name;
      return std::make_shared<OffloadSimBackend>(
          name, spec.device, spec.host_model, rate_smoothing, metrics);
    }
  }
  ensure(false, "make_backend: unknown backend kind");
  return nullptr;
}

BackendSet::BackendSet(const std::vector<BackendSpec>& specs,
                       double rate_smoothing, obs::Registry* metrics) {
  ensure(!specs.empty(), "BackendSet: at least one backend");
  backends_.reserve(specs.size());
  for (const auto& spec : specs) {
    backends_.push_back(make_backend(spec, rate_smoothing, metrics));
  }
}

std::vector<double> BackendSet::split() const {
  std::vector<double> weights(backends_.size());
  bool all_observed = true;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->observed_rate() <= 0.0) {
      all_observed = false;
      break;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    weights[i] = all_observed ? backends_[i]->observed_rate()
                              : backends_[i]->rate_prior();
    total += weights[i];
  }
  for (auto& w : weights) w /= total;
  return weights;
}

std::vector<Index> BackendSet::partition(Index n) const {
  const std::vector<double> fractions = split();
  std::vector<Index> bounds(backends_.size() + 1, 0);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    cumulative += fractions[i];
    const auto edge =
        static_cast<Index>(std::llround(cumulative * static_cast<double>(n)));
    bounds[i + 1] = std::clamp<Index>(edge, bounds[i], n);
    backends_[i]->set_split_gauge(fractions[i]);
  }
  bounds.back() = n;
  return bounds;
}

}  // namespace sarbp::exec
