// Pulse collector: turns (trajectory, reflector scene) into a
// range-compressed phase history. This is the paper's §5.1 data generator.
//
// Three fidelity levels, trading physics for speed:
//  - kFullWaveform: synthesize the raw baseband echo per pulse (delayed,
//    scaled chirp copies, down-converted), then FFT matched-filter it —
//    exercises the whole signal substrate;
//  - kIdealResponse: write the analytic post-compression point response
//    (sinc in range, exact carrier phase) directly — two orders of
//    magnitude faster, same backprojection-facing content;
//  - kRandom: band-limited noise profiles — for throughput benchmarking
//    where only the data volume matters.
#pragma once

#include "common/rng.h"
#include "geometry/grid.h"
#include "geometry/trajectory.h"
#include "sim/phase_history.h"
#include "sim/scene.h"
#include "signal/chirp.h"

namespace sarbp::sim {

enum class CollectionFidelity { kFullWaveform, kIdealResponse, kRandom };

struct CollectorParams {
  signal::ChirpParams chirp;
  CollectionFidelity fidelity = CollectionFidelity::kIdealResponse;
  /// Extra metres of receive window on each side of the scene's range span.
  double range_margin_m = 50.0;
  /// Thermal noise standard deviation added per compressed sample (0 = off).
  double noise_sigma = 0.0;
};

/// Collects one pulse batch on the calling thread. The phase history's
/// per-pulse metadata carries the *recorded* positions (what image
/// formation may legitimately use); echo delays are computed from the
/// *true* positions.
PhaseHistory collect(const CollectorParams& params,
                     const geometry::ImageGrid& grid,
                     const ReflectorScene& scene,
                     std::span<const geometry::PulsePose> poses,
                     sarbp::Rng& rng);

/// Number of compressed samples per pulse the collector will produce for
/// this geometry (scene span + margins + pulse length).
Index window_samples(const CollectorParams& params,
                     const geometry::ImageGrid& grid,
                     std::span<const geometry::PulsePose> poses);

}  // namespace sarbp::sim
