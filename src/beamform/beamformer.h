// Delay-and-sum beamformers: the baseline (per-pixel sqrt + trig) and the
// approximate-strength-reduction form, which reuses the SAR ASR machinery
// unchanged — the path function z + sqrt((x - x_e)^2 + z^2) is the SAR
// range function plus a linear term, so the per-block quadratic tables
// (A, B, C, Phi', Omega, Psi) apply verbatim. Paper §7 reports 5x from this
// transformation on their beamformer.
#pragma once

#include "beamform/transducer.h"
#include "common/grid2d.h"

namespace sarbp::beamform {

/// Reference/baseline delay-and-sum: per (pixel, element) one double sqrt,
/// one double argument reduction + polynomial sin/cos (EP accuracy — same
/// operating point as the SAR baseline), one linear interpolation.
Grid2D<CFloat> beamform_baseline(const Transducer& transducer,
                                 const ScanRegion& region,
                                 const ChannelData& data);

/// All-double reference for accuracy measurements.
Grid2D<CDouble> beamform_ref(const Transducer& transducer,
                             const ScanRegion& region,
                             const ChannelData& data);

/// ASR delay-and-sum: per (element, pixel-block) quadratic tables, inner
/// loop of multiply/adds only. The block edges are the accuracy knob
/// (§3.5); ultrasound's near-field path curvature is dominated by the
/// lateral coordinate, so blocks default to narrow-in-x / tall-in-depth.
Grid2D<CFloat> beamform_asr(const Transducer& transducer,
                            const ScanRegion& region, const ChannelData& data,
                            Index block_x = 16, Index block_z = 32);

}  // namespace sarbp::beamform
