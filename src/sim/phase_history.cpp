#include "sim/phase_history.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "signal/fft.h"

namespace sarbp::sim {

PhaseHistory::PhaseHistory(Index num_pulses, Index samples_per_pulse,
                           double bin_spacing_m, double wavenumber)
    : num_pulses_(num_pulses),
      samples_(samples_per_pulse),
      bin_spacing_(bin_spacing_m),
      wavenumber_(wavenumber) {
  ensure(num_pulses >= 0 && samples_per_pulse > 0,
         "PhaseHistory: invalid shape");
  ensure(bin_spacing_m > 0, "PhaseHistory: bin spacing must be positive");
  aos_.assign(static_cast<std::size_t>(num_pulses * samples_per_pulse),
              CFloat{});
  meta_.resize(static_cast<std::size_t>(num_pulses));
}

bool PhaseHistory::samples_finite() const {
  // A float is finite unless its exponent bits are all ones. The largest
  // exponent field over every component decides, and an integer max runs
  // as vector code.
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t widest = 0;
  for (const CFloat& v : aos_) {
    const auto re = std::bit_cast<std::uint32_t>(v.real());
    const auto im = std::bit_cast<std::uint32_t>(v.imag());
    widest = std::max({widest, re & kExponent, im & kExponent});
  }
  return widest != kExponent;
}

PhaseHistory PhaseHistory::upsampled(Index factor) const {
  ensure(factor >= 1, "PhaseHistory::upsampled: factor must be >= 1");
  if (factor == 1) {
    PhaseHistory copy = *this;
    return copy;
  }
  const Index n = samples_;
  const Index m = n * factor;
  PhaseHistory out(num_pulses_, m, bin_spacing_ / static_cast<double>(factor),
                   wavenumber_);
  const signal::Fft<double> fwd(static_cast<std::size_t>(n));
  const signal::Fft<double> inv(static_cast<std::size_t>(m));
  std::vector<CDouble> spectrum(static_cast<std::size_t>(n));
  std::vector<CDouble> padded(static_cast<std::size_t>(m));
  for (Index p = 0; p < num_pulses_; ++p) {
    out.meta(p) = meta(p);  // start range and positions are unchanged
    const auto src = pulse(p);
    for (Index i = 0; i < n; ++i) {
      spectrum[static_cast<std::size_t>(i)] =
          CDouble(src[static_cast<std::size_t>(i)].real(),
                  src[static_cast<std::size_t>(i)].imag());
    }
    fwd.forward(spectrum);
    // Zero-pad in the middle: keep [0, n/2) low and [n/2, n) high halves
    // at the ends of the longer spectrum (the Nyquist bin goes low-side;
    // profiles are oversampled enough that it carries ~nothing).
    std::fill(padded.begin(), padded.end(), CDouble{});
    const Index half = n / 2;
    for (Index i = 0; i < half; ++i) {
      padded[static_cast<std::size_t>(i)] = spectrum[static_cast<std::size_t>(i)];
    }
    for (Index i = half; i < n; ++i) {
      padded[static_cast<std::size_t>(m - n + i)] =
          spectrum[static_cast<std::size_t>(i)];
    }
    inv.inverse(padded);
    auto dst = out.pulse(p);
    const double scale = static_cast<double>(factor);  // preserve amplitude
    for (Index i = 0; i < m; ++i) {
      dst[static_cast<std::size_t>(i)] =
          CFloat(static_cast<float>(padded[static_cast<std::size_t>(i)].real() * scale),
                 static_cast<float>(padded[static_cast<std::size_t>(i)].imag() * scale));
    }
  }
  return out;
}

}  // namespace sarbp::sim
