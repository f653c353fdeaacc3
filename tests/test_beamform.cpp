// Ultrasound beamforming tests: the ASR-generality demonstration of paper
// §7. Scatterer focusing, baseline-vs-reference and ASR-vs-reference
// accuracy, block-size behaviour, and the structural speed claim.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "beamform/beamformer.h"
#include "beamform/simulator.h"
#include "common/rng.h"
#include "common/snr.h"
#include "common/timer.h"

namespace sarbp::beamform {
namespace {

struct BfSetup {
  Transducer transducer;
  ScanRegion region;
  ChannelData data;
};

BfSetup single_scatterer(Index px = 64, Index pz = 64) {
  Transducer t;
  t.elements = 48;
  ScanRegion region;
  Scatterer s;
  s.x_m = region.pixel_x(px);
  s.z_m = region.pixel_z(pz);
  auto data = simulate_channels(t, region, std::span<const Scatterer>(&s, 1));
  return {t, region, std::move(data)};
}

std::pair<Index, Index> peak_of(const Grid2D<CFloat>& img) {
  Index bx = 0, bz = 0;
  double best = 0.0;
  for (Index z = 0; z < img.height(); ++z) {
    for (Index x = 0; x < img.width(); ++x) {
      const double m = std::abs(img.at(x, z));
      if (m > best) {
        best = m;
        bx = x;
        bz = z;
      }
    }
  }
  return {bx, bz};
}

TEST(Beamform, ReferenceFocusesScattererAtItsPixel) {
  const BfSetup s = single_scatterer(64, 64);
  const auto ref = beamform_ref(s.transducer, s.region, s.data);
  Index bx = 0, bz = 0;
  double best = 0.0;
  for (Index z = 0; z < ref.height(); ++z) {
    for (Index x = 0; x < ref.width(); ++x) {
      const double m = std::abs(ref.at(x, z));
      if (m > best) {
        best = m;
        bx = x;
        bz = z;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(bx), 64.0, 1.0);
  EXPECT_NEAR(static_cast<double>(bz), 64.0, 1.0);
}

TEST(Beamform, BaselineMatchesReference) {
  const BfSetup s = single_scatterer();
  const auto ref = beamform_ref(s.transducer, s.region, s.data);
  const auto baseline = beamform_baseline(s.transducer, s.region, s.data);
  EXPECT_GT(snr_db(baseline, ref), 40.0);  // EP trig operating point
}

TEST(Beamform, AsrFocusesAtSamePixelAsBaseline) {
  const BfSetup s = single_scatterer(40, 80);
  const auto baseline = beamform_baseline(s.transducer, s.region, s.data);
  const auto asr = beamform_asr(s.transducer, s.region, s.data);
  const auto [bx1, bz1] = peak_of(baseline);
  const auto [bx2, bz2] = peak_of(asr);
  EXPECT_LE(std::abs(bx1 - bx2), 1);
  EXPECT_LE(std::abs(bz1 - bz2), 1);
}

TEST(Beamform, AsrAccuracyAdequateForEnvelopeImaging) {
  // Ultrasound wavelengths are ~100x shorter relative to the geometry than
  // SAR's, so per-block phase errors of ~0.05 rad (~25-35 dB SNR) are the
  // operating point; that is far below the speckle dynamic range that
  // B-mode envelope display uses.
  const BfSetup s = single_scatterer();
  const auto ref = beamform_ref(s.transducer, s.region, s.data);
  const auto asr = beamform_asr(s.transducer, s.region, s.data);
  EXPECT_GT(snr_db(asr, ref), 20.0);
}

TEST(Beamform, SmallerBlocksAreMoreAccurate) {
  const BfSetup s = single_scatterer();
  const auto ref = beamform_ref(s.transducer, s.region, s.data);
  const double snr_small =
      snr_db(beamform_asr(s.transducer, s.region, s.data, 8, 16), ref);
  const double snr_large =
      snr_db(beamform_asr(s.transducer, s.region, s.data, 32, 64), ref);
  EXPECT_GT(snr_small, snr_large);
}

TEST(Beamform, AsrFasterThanBaseline) {
  // The §7 claim at kernel level (paper: 5x on their beamformer/hardware).
  Transducer t;
  t.elements = 48;
  ScanRegion region;
  region.width = 192;
  region.depth = 192;
  Rng rng(5);
  const auto phantom = random_phantom(region, 200, rng);
  const auto data = simulate_channels(t, region, phantom);

  Timer t_base;
  const auto baseline = beamform_baseline(t, region, data);
  const double base_s = t_base.seconds();
  Timer t_asr;
  const auto asr = beamform_asr(t, region, data);
  const double asr_s = t_asr.seconds();
  EXPECT_LT(asr_s, base_s);
}

TEST(Beamform, SpecklePhantomProducesFullField) {
  Transducer t;
  t.elements = 32;
  ScanRegion region;
  region.width = 64;
  region.depth = 64;
  Rng rng(9);
  const auto phantom = random_phantom(region, 300, rng);
  const auto data = simulate_channels(t, region, phantom);
  const auto img = beamform_asr(t, region, data);
  Index nonzero = 0;
  for (const auto& v : img.flat()) {
    if (std::abs(v) > 0.0f) ++nonzero;
  }
  EXPECT_GT(nonzero, img.size() * 9 / 10);
}

TEST(Beamform, MismatchedChannelCountThrows) {
  Transducer t;
  t.elements = 16;
  ScanRegion region;
  ChannelData wrong(8, 128);
  EXPECT_THROW((void)beamform_baseline(t, region, wrong), PreconditionError);
}

// A scan region 1e20 m deep puts every bin near 2.6e24, far past the
// 1,024-sample record and beyond Index's range: every beamformer must add
// nothing. They used to convert the bin to Index before checking it fully
// (undefined; on x86 the conversion yields INT64_MIN, which passed the
// upper check and read sample 0).
TEST(Beamform, BinsBeyondTheRecordAddNothing) {
  Transducer t;
  t.elements = 8;
  ScanRegion region;
  region.width = 16;
  region.depth = 16;
  region.z_start_m = 1e20;
  ChannelData data(t.elements, 1024);
  Rng rng(11);
  for (int e = 0; e < t.elements; ++e) {
    for (CFloat& v : data.channel(e)) {
      v = CFloat{static_cast<float>(rng.normal()),
                 static_cast<float>(rng.normal())};
    }
  }
  const auto all_zero = [](const auto& image) {
    for (const auto& v : image.flat()) {
      if (v.real() != 0 || v.imag() != 0) return false;
    }
    return true;
  };
  EXPECT_TRUE(all_zero(beamform_ref(t, region, data))) << "ref";
  EXPECT_TRUE(all_zero(beamform_baseline(t, region, data))) << "baseline";
  EXPECT_TRUE(all_zero(beamform_asr(t, region, data))) << "asr";
}

TEST(Beamform, RandomPhantomIsDeterministic) {
  ScanRegion region;
  Rng a(3), b(3);
  const auto p1 = random_phantom(region, 10, a);
  const auto p2 = random_phantom(region, 10, b);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].x_m, p2[i].x_m);
    EXPECT_EQ(p1[i].amplitude, p2[i].amplitude);
  }
}

TEST(Transducer, ElementPositionsCentred) {
  Transducer t;
  t.elements = 4;
  t.pitch_m = 1.0;
  EXPECT_DOUBLE_EQ(t.element_x(0), -1.5);
  EXPECT_DOUBLE_EQ(t.element_x(3), 1.5);
  EXPECT_DOUBLE_EQ(t.element_x(1) + t.element_x(2), 0.0);
}

}  // namespace
}  // namespace sarbp::beamform
