// Range-compressed phase history: the `In` array of the paper's Fig. 3,
// one compressed range profile per pulse plus the per-pulse metadata
// (recorded platform position, start range) backprojection needs.
//
// Samples are kept in one interleaved (AoS) layout, so In[bin] and
// In[bin+1] are four adjacent floats: one 128-bit load plus a shuffle on
// CPUs, or pair gathers on gather-capable hardware (paper §4.4; the ASR
// SIMD kernels offer both as KernelVariants).
#pragma once

#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/types.h"
#include "geometry/vec3.h"

namespace sarbp::sim {

struct PulseMeta {
  geometry::Vec3 position;  ///< recorded (INS) platform position
  double start_range_m = 0.0;  ///< slant range of bin 0 (the paper's r0)
  double time_s = 0.0;
};

class PhaseHistory {
 public:
  PhaseHistory() = default;

  /// `bin_spacing_m`: the paper's dr; `wavenumber`: the paper's k (2 f0/c).
  PhaseHistory(Index num_pulses, Index samples_per_pulse,
               double bin_spacing_m, double wavenumber);

  [[nodiscard]] Index num_pulses() const { return num_pulses_; }
  [[nodiscard]] Index samples_per_pulse() const { return samples_; }
  [[nodiscard]] double bin_spacing() const { return bin_spacing_; }
  [[nodiscard]] double wavenumber() const { return wavenumber_; }

  [[nodiscard]] std::span<CFloat> pulse(Index p) {
    return {aos_.data() + p * samples_, static_cast<std::size_t>(samples_)};
  }
  [[nodiscard]] std::span<const CFloat> pulse(Index p) const {
    return {aos_.data() + p * samples_, static_cast<std::size_t>(samples_)};
  }

  [[nodiscard]] PulseMeta& meta(Index p) { return meta_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const PulseMeta& meta(Index p) const {
    return meta_[static_cast<std::size_t>(p)];
  }

  /// True when no sample is NaN or infinite: one pass over the payload.
  [[nodiscard]] bool samples_finite() const;

  /// Total sample payload in bytes (PCIe-transfer accounting).
  [[nodiscard]] std::size_t payload_bytes() const {
    return aos_.size() * sizeof(CFloat);
  }

  /// FFT-based range upsampling: returns a history with `factor` x the
  /// samples per pulse at bin spacing dr/factor (band-limited
  /// interpolation via spectral zero-padding). Used by the hierarchical
  /// backprojection front end, where near-critically-sampled profiles make
  /// direct resampling lossy.
  [[nodiscard]] PhaseHistory upsampled(Index factor) const;

 private:
  Index num_pulses_ = 0;
  Index samples_ = 0;
  double bin_spacing_ = 1.0;
  double wavenumber_ = 0.0;
  AlignedVector<CFloat> aos_;
  std::vector<PulseMeta> meta_;
};

}  // namespace sarbp::sim
