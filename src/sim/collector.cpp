#include "sim/collector.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "signal/rangecomp.h"

namespace sarbp::sim {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

struct RangeSpan {
  double min_m;
  double max_m;
};

/// Conservative slant-range span from any pose to any point of the grid,
/// evaluated at the grid corners and centre (the range function is convex
/// enough over a flat grid for corners to bound it in practice; the margin
/// absorbs the rest).
RangeSpan scene_range_span(const geometry::ImageGrid& grid,
                           std::span<const geometry::PulsePose> poses) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  const Index xs[] = {0, grid.width() - 1, 0, grid.width() - 1,
                      grid.width() / 2};
  const Index ys[] = {0, 0, grid.height() - 1, grid.height() - 1,
                      grid.height() / 2};
  for (const auto& pose : poses) {
    for (int c = 0; c < 5; ++c) {
      const double r =
          geometry::distance(grid.position(xs[c], ys[c]), pose.true_position);
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
  }
  return {lo, hi};
}

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}

void add_ideal_response(PhaseHistory& history, Index pulse_index,
                        const Reflector& reflector,
                        const geometry::PulsePose& pose,
                        const signal::ChirpParams& chirp) {
  const double r = geometry::distance(reflector.position, pose.true_position);
  const auto meta = history.meta(pulse_index);
  const double bin = (r - meta.start_range_m) / history.bin_spacing();
  // Post-compression mainlobe: sinc with first null at fs/B bins; the
  // Taylor taper widens it slightly — the 1.2x factor matches the -35 dB
  // nbar=4 taper's measured mainlobe broadening.
  const double bins_per_lobe =
      1.2 * chirp.sample_rate_hz / chirp.bandwidth_hz;
  const int reach = static_cast<int>(std::ceil(8.0 * bins_per_lobe));
  const double phase = -kTwoPi * history.wavenumber() * r + reflector.phase_rad;
  const CDouble carrier{reflector.amplitude * std::cos(phase),
                        reflector.amplitude * std::sin(phase)};
  auto samples = history.pulse(pulse_index);
  const auto centre = static_cast<Index>(std::llround(bin));
  for (Index b = std::max<Index>(0, centre - reach);
       b <= std::min<Index>(history.samples_per_pulse() - 1, centre + reach);
       ++b) {
    const double d = (static_cast<double>(b) - bin) / bins_per_lobe;
    const double envelope = sinc(d) * (0.5 + 0.5 * std::cos(std::numbers::pi *
                                                            std::clamp(d / 8.0, -1.0, 1.0)));
    const CDouble v = carrier * envelope;
    samples[static_cast<std::size_t>(b)] +=
        CFloat(static_cast<float>(v.real()), static_cast<float>(v.imag()));
  }
}

void synthesize_full_waveform(PhaseHistory& history, Index pulse_index,
                              const std::vector<Reflector>& visible,
                              const geometry::PulsePose& pose,
                              const CollectorParams& params,
                              const signal::RangeCompressor& compressor) {
  const auto meta = history.meta(pulse_index);
  const double t_start = 2.0 * meta.start_range_m / signal::kSpeedOfLight;
  const double fs = params.chirp.sample_rate_hz;
  const double tp = params.chirp.duration_s;
  const double gamma = params.chirp.chirp_rate();
  const auto window = static_cast<std::size_t>(history.samples_per_pulse());

  std::vector<CDouble> raw(window, CDouble{});
  for (const auto& reflector : visible) {
    const double r = geometry::distance(reflector.position, pose.true_position);
    const double tau = 2.0 * r / signal::kSpeedOfLight;
    // Down-converted echo: chirp envelope delayed by tau carrying the
    // carrier phase exp(-i*2*pi*f0*tau) = exp(-i*2*pi*k*r).
    const double carrier_phase =
        -kTwoPi * params.chirp.carrier_hz * tau + reflector.phase_rad;
    const auto first =
        static_cast<std::ptrdiff_t>(std::ceil((tau - t_start) * fs));
    const auto last = static_cast<std::ptrdiff_t>((tau - t_start + tp) * fs);
    for (std::ptrdiff_t m = std::max<std::ptrdiff_t>(0, first);
         m <= std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(window) - 1, last);
         ++m) {
      const double t = t_start + static_cast<double>(m) / fs - tau;  // in-pulse time
      if (t < 0.0 || t >= tp) continue;
      const double tc = t - 0.5 * tp;
      const double phase = std::numbers::pi * gamma * tc * tc + carrier_phase;
      raw[static_cast<std::size_t>(m)] +=
          CDouble(reflector.amplitude * std::cos(phase),
                  reflector.amplitude * std::sin(phase));
    }
  }
  compressor.compress(raw, history.pulse(pulse_index));
}

}  // namespace

Index window_samples(const CollectorParams& params,
                     const geometry::ImageGrid& grid,
                     std::span<const geometry::PulsePose> poses) {
  ensure(!poses.empty(), "window_samples: no pulses");
  const RangeSpan span = scene_range_span(grid, poses);
  const double extent =
      span.max_m - span.min_m + 2.0 * params.range_margin_m;
  const double dr = params.chirp.range_bin_spacing();
  Index n = static_cast<Index>(std::ceil(extent / dr));
  if (params.fidelity == CollectionFidelity::kFullWaveform) {
    // Room for the uncompressed pulse tail inside the receive window.
    n += static_cast<Index>(params.chirp.samples_per_pulse());
  }
  return n;
}

PhaseHistory collect(const CollectorParams& params,
                     const geometry::ImageGrid& grid,
                     const ReflectorScene& scene,
                     std::span<const geometry::PulsePose> poses,
                     sarbp::Rng& rng) {
  params.chirp.validate();
  ensure(!poses.empty(), "collect: no pulses");
  const RangeSpan span = scene_range_span(grid, poses);
  const double start_range = span.min_m - params.range_margin_m;
  const Index samples = window_samples(params, grid, poses);

  PhaseHistory history(static_cast<Index>(poses.size()), samples,
                       params.chirp.range_bin_spacing(),
                       params.chirp.wavenumber());

  for (Index p = 0; p < history.num_pulses(); ++p) {
    auto& meta = history.meta(p);
    meta.position = poses[static_cast<std::size_t>(p)].recorded_position;
    meta.start_range_m = start_range;
    meta.time_s = poses[static_cast<std::size_t>(p)].time_s;
  }

  switch (params.fidelity) {
    case CollectionFidelity::kRandom: {
      for (Index p = 0; p < history.num_pulses(); ++p) {
        auto samples_span = history.pulse(p);
        for (auto& s : samples_span) {
          s = CFloat(static_cast<float>(rng.normal()),
                     static_cast<float>(rng.normal()));
        }
      }
      break;
    }
    case CollectionFidelity::kIdealResponse: {
      for (Index p = 0; p < history.num_pulses(); ++p) {
        const auto& pose = poses[static_cast<std::size_t>(p)];
        for (const auto& reflector : scene.reflectors()) {
          if (!reflector.visible_at(pose.time_s)) continue;
          add_ideal_response(history, p, reflector, pose, params.chirp);
        }
      }
      break;
    }
    case CollectionFidelity::kFullWaveform: {
      const signal::RangeCompressor compressor(
          params.chirp, static_cast<std::size_t>(samples));
      for (Index p = 0; p < history.num_pulses(); ++p) {
        const auto& pose = poses[static_cast<std::size_t>(p)];
        synthesize_full_waveform(history, p,
                                 scene.visible_at(pose.time_s), pose, params,
                                 compressor);
      }
      break;
    }
  }

  if (params.noise_sigma > 0.0) {
    for (Index p = 0; p < history.num_pulses(); ++p) {
      for (auto& s : history.pulse(p)) {
        s += CFloat(static_cast<float>(rng.normal(0.0, params.noise_sigma)),
                    static_cast<float>(rng.normal(0.0, params.noise_sigma)));
      }
    }
  }

  return history;
}

}  // namespace sarbp::sim
