// ASR machinery tests: Taylor coefficients against finite differences,
// remainder bound vs measured error (property sweep over block sizes and
// geometries), strength-reduced table identities, and block planning.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "asr/block_plan.h"
#include "asr/error_model.h"
#include "asr/quadratic.h"
#include "asr/tables.h"
#include "common/aligned.h"
#include "common/check.h"
#include "common/rng.h"
#include "signal/trig.h"
#include "test_helpers.h"

namespace sarbp::asr {
namespace {

using sarbp::testing::OwnedTables;

constexpr double kTwoPi = 2.0 * std::numbers::pi;

TEST(Quadratic, ExactAtExpansionCentre) {
  const geometry::Vec3 centre{100, 200, 0};
  const geometry::Vec3 radar{15000, 3000, 8000};
  const Quadratic2D q = range_quadratic(centre, radar, 1.0, 1.0);
  EXPECT_NEAR(q.f0, geometry::distance(centre, radar), 1e-9);
  EXPECT_NEAR(q.eval(0, 0), q.f0, 1e-12);
}

TEST(Quadratic, GradientMatchesFiniteDifference) {
  const geometry::Vec3 centre{-50, 80, 0};
  const geometry::Vec3 radar{12000, -4000, 7000};
  const double dx = 0.7, dy = 1.3;
  const Quadratic2D q = range_quadratic(centre, radar, dx, dy);
  const double h = 1e-4;
  const double dl =
      (exact_range(centre, radar, dx, dy, h, 0) -
       exact_range(centre, radar, dx, dy, -h, 0)) / (2 * h);
  const double dm =
      (exact_range(centre, radar, dx, dy, 0, h) -
       exact_range(centre, radar, dx, dy, 0, -h)) / (2 * h);
  EXPECT_NEAR(q.ax, dl, 1e-7);
  EXPECT_NEAR(q.ay, dm, 1e-7);
}

TEST(Quadratic, CurvatureMatchesFiniteDifference) {
  const geometry::Vec3 centre{30, -20, 0};
  const geometry::Vec3 radar{9000, 5000, 6000};
  const double dx = 1.0, dy = 1.0;
  const Quadratic2D q = range_quadratic(centre, radar, dx, dy);
  const double h = 1.0;
  auto f = [&](double l, double m) {
    return exact_range(centre, radar, dx, dy, l, m);
  };
  // Second differences: f_ll ~= 2*bx, f_mm ~= 2*by, f_lm ~= cxy.
  const double d2l = (f(h, 0) - 2 * f(0, 0) + f(-h, 0)) / (h * h);
  const double d2m = (f(0, h) - 2 * f(0, 0) + f(0, -h)) / (h * h);
  const double dlm =
      (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h);
  EXPECT_NEAR(2 * q.bx, d2l, 1e-8);
  EXPECT_NEAR(2 * q.by, d2m, 1e-8);
  EXPECT_NEAR(q.cxy, dlm, 1e-8);
}

TEST(Quadratic, MatchesPaperFormulaShape) {
  // Directly check the §3.3 closed forms against the implementation.
  const geometry::Vec3 centre{500, -300, 0};
  const geometry::Vec3 radar{14000, 2000, 9000};
  const geometry::Vec3 u = centre - radar;
  const double f0 = u.norm();
  const double dx = 0.8, dy = 1.1;
  const Quadratic2D q = range_quadratic(centre, radar, dx, dy);
  EXPECT_NEAR(q.ax, dx * u.x / f0, 1e-12);
  EXPECT_NEAR(q.ay, dy * u.y / f0, 1e-12);
  EXPECT_NEAR(q.bx, dx * dx / (2 * f0) - dx * dx * u.x * u.x / (2 * f0 * f0 * f0),
              1e-15);
  EXPECT_NEAR(q.cxy, -dx * dy * u.x * u.y / (f0 * f0 * f0), 1e-15);
}

TEST(Quadratic, CoincidentRadarThrows) {
  EXPECT_THROW(range_quadratic({1, 1, 0}, {1, 1, 0}, 1, 1), PreconditionError);
}

struct ErrorCase {
  Index block;
  double expected_max_error_m;  // loose ceiling for this geometry
};

class RemainderSweep : public ::testing::TestWithParam<Index> {};

TEST_P(RemainderSweep, BoundDominatesMeasuredError) {
  const Index block = GetParam();
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const geometry::Vec3 radar{rng.uniform(8000, 20000),
                               rng.uniform(-6000, 6000),
                               rng.uniform(4000, 10000)};
    const geometry::Vec3 centre{rng.uniform(-800, 800),
                                rng.uniform(-800, 800), 0};
    const double spacing = rng.uniform(0.5, 2.0);
    const BlockErrorStats measured =
        measure_block_error(centre, radar, spacing, spacing, block, block);
    const double bound = taylor_remainder_bound(
        centre, radar, spacing, spacing,
        0.5 * static_cast<double>(block), 0.5 * static_cast<double>(block));
    EXPECT_GE(bound, measured.max_abs_m)
        << "block " << block << " trial " << trial;
    EXPECT_GE(measured.max_abs_m, measured.rms_m);
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, RemainderSweep,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

TEST(Remainder, ErrorGrowsWithBlockSize) {
  const geometry::Vec3 radar{15000, 3000, 8000};
  const geometry::Vec3 centre{200, -100, 0};
  double previous = 0.0;
  for (Index block : {16, 32, 64, 128, 256}) {
    const auto stats =
        measure_block_error(centre, radar, 1.0, 1.0, block, block);
    EXPECT_GT(stats.max_abs_m, previous) << "block " << block;
    previous = stats.max_abs_m;
  }
}

TEST(Remainder, ErrorShrinksCubicallyish) {
  // Halving the block edge should cut the max error by ~8x (third-order
  // remainder). Accept 5x..11x.
  const geometry::Vec3 radar{15000, 3000, 8000};
  const geometry::Vec3 centre{200, -100, 0};
  const auto big = measure_block_error(centre, radar, 1.0, 1.0, 256, 256);
  const auto small = measure_block_error(centre, radar, 1.0, 1.0, 128, 128);
  const double ratio = big.max_abs_m / small.max_abs_m;
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 11.0);
}

TEST(ErrorModel, SnrFormulaAnchors) {
  // sigma_phase = 1e-3 rad -> 60 dB.
  const double k = 1.0 / kTwoPi;  // makes sigma_phase == sigma_r
  EXPECT_NEAR(phase_error_snr_db(1e-3, k), 60.0, 1e-9);
  EXPECT_TRUE(std::isinf(phase_error_snr_db(0.0, 64.0)));
}

TEST(ErrorModel, PredictedSnrInCalibratedRegime) {
  // DESIGN.md §5: X-band, ~41 km slant range, 0.5 m pixels, 64x64 blocks
  // should predict SNR in the ~50-80 dB band (Fig. 8 regime).
  geometry::ImageGrid grid(512, 512, 0.5);
  const geometry::Vec3 radar{40000, 0, 8000};
  const double k = 2 * 9.6e9 / 299792458.0;
  const double snr64 = predicted_snr_db(grid, radar, k, 64, 64);
  EXPECT_GT(snr64, 45.0);
  EXPECT_LT(snr64, 110.0);
  // And it must fall as blocks grow.
  const double snr256 = predicted_snr_db(grid, radar, k, 256, 256);
  EXPECT_LT(snr256, snr64);
}

TEST(Tables, BinTableMatchesQuadraticDirectly) {
  const geometry::Vec3 radar{15000, 3000, 8000};
  const geometry::Vec3 centre{100, 50, 0};
  const Quadratic2D q = range_quadratic(centre, radar, 1.0, 1.0);
  const double r0 = q.f0 - 400.0;
  const double dr = 0.42;
  const Index L = 32, M = 24;
  OwnedTables owned(L, M);
  BlockTables& t = owned.view;
  build_block_tables(q, r0, dr, 0.001, L, M, t);
  const double l0 = -0.5 * static_cast<double>(L - 1);
  const double m0 = -0.5 * static_cast<double>(M - 1);
  for (Index m = 0; m < M; m += 3) {
    for (Index l = 0; l < L; l += 3) {
      const double expected =
          (q.eval(static_cast<double>(l) + l0, static_cast<double>(m) + m0) -
           r0) / dr;
      EXPECT_NEAR(table_bin(t, l, m), expected, 2e-2) << l << "," << m;
    }
  }
}

TEST(Tables, TrigTablesReconstructPhase) {
  // Phi'[l] * Omega[l]^m * Psi[m] must equal exp(i*2*pi*k*q(lc, mc)).
  const geometry::Vec3 radar{12000, -2000, 7000};
  const geometry::Vec3 centre{-80, 120, 0};
  const Quadratic2D q = range_quadratic(centre, radar, 1.0, 1.0);
  const double two_pi_k = kTwoPi * 64.0;
  const Index L = 16, M = 16;
  OwnedTables owned(L, M);
  BlockTables& t = owned.view;
  build_block_tables(q, q.f0 - 100.0, 0.5, two_pi_k, L, M, t);
  const double l0 = -0.5 * static_cast<double>(L - 1);
  const double m0 = -0.5 * static_cast<double>(M - 1);
  for (Index l = 0; l < L; ++l) {
    // chi recurrence along m.
    const auto li = static_cast<std::size_t>(l);
    double chi_r = t.phi_re[li], chi_i = t.phi_im[li];
    for (Index m = 0; m < M; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      const double a_r = chi_r * t.psi_re[mi] - chi_i * t.psi_im[mi];
      const double a_i = chi_r * t.psi_im[mi] + chi_i * t.psi_re[mi];
      const double phase =
          two_pi_k * q.eval(static_cast<double>(l) + l0,
                            static_cast<double>(m) + m0);
      EXPECT_NEAR(a_r, std::cos(phase), 5e-5) << l << "," << m;
      EXPECT_NEAR(a_i, std::sin(phase), 5e-5) << l << "," << m;
      const double next_r = chi_r * t.omega_re[li] - chi_i * t.omega_im[li];
      chi_i = chi_r * t.omega_im[li] + chi_i * t.omega_re[li];
      chi_r = next_r;
    }
  }
}

TEST(Tables, FastBuilderMatchesReference) {
  // The recurrence-based builder (§4.4 precompute vectorization) must be
  // interchangeable with the per-entry sincos reference across block
  // shapes and geometries.
  Rng rng(91);
  for (int trial = 0; trial < 6; ++trial) {
    const geometry::Vec3 radar{rng.uniform(10000, 45000),
                               rng.uniform(-5000, 5000),
                               rng.uniform(5000, 9000)};
    const geometry::Vec3 centre{rng.uniform(-500, 500),
                                rng.uniform(-500, 500), 0};
    const Quadratic2D q = range_quadratic(centre, radar, 0.5, 0.5);
    const double r0 = q.f0 - 300.0;
    const double two_pi_k = kTwoPi * 64.05;
    const Index L = 16 + 29 * trial;  // odd sizes, up to 161
    const Index M = 8 + 37 * trial;
    OwnedTables owned_ref(L, M);
    OwnedTables owned_fast(L, M);
    BlockTables& ref = owned_ref.view;
    BlockTables& fast = owned_fast.view;
    build_block_tables(q, r0, 0.416, two_pi_k, L, M, ref);
    build_block_tables_fast(q, r0, 0.416, two_pi_k, L, M, fast);
    for (Index l = 0; l < L; ++l) {
      const auto li = static_cast<std::size_t>(l);
      ASSERT_NEAR(fast.bin_a[li], ref.bin_a[li], 2e-3) << trial << " l=" << l;
      ASSERT_NEAR(fast.phi_re[li], ref.phi_re[li], 1e-5) << trial << " l=" << l;
      ASSERT_NEAR(fast.phi_im[li], ref.phi_im[li], 1e-5) << trial << " l=" << l;
      ASSERT_NEAR(fast.omega_re[li], ref.omega_re[li], 1e-5) << trial;
      ASSERT_NEAR(fast.omega_im[li], ref.omega_im[li], 1e-5) << trial;
    }
    for (Index m = 0; m < M; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      ASSERT_NEAR(fast.bin_b[mi], ref.bin_b[mi], 2e-3) << trial << " m=" << m;
      ASSERT_NEAR(fast.bin_c[mi], ref.bin_c[mi], 1e-5) << trial << " m=" << m;
      ASSERT_NEAR(fast.psi_re[mi], ref.psi_re[mi], 1e-5) << trial;
      ASSERT_NEAR(fast.psi_im[mi], ref.psi_im[mi], 1e-5) << trial;
    }
  }
}

TEST(Tables, FastBuilderStableOverLongBlocks) {
  // 512-entry tables: the renormalized recurrence must not drift.
  const geometry::Vec3 radar{40000, 0, 8000};
  const geometry::Vec3 centre{0, 0, 0};
  const Quadratic2D q = range_quadratic(centre, radar, 0.5, 0.5);
  OwnedTables owned_ref(512, 512);
  OwnedTables owned_fast(512, 512);
  BlockTables& ref = owned_ref.view;
  BlockTables& fast = owned_fast.view;
  build_block_tables(q, q.f0 - 200.0, 0.416, kTwoPi * 64.05, 512, 512, ref);
  build_block_tables_fast(q, q.f0 - 200.0, 0.416, kTwoPi * 64.05, 512, 512,
                          fast);
  float worst = 0.0f;
  for (Index l = 0; l < 512; ++l) {
    const auto li = static_cast<std::size_t>(l);
    worst = std::max(worst, std::abs(fast.phi_re[li] - ref.phi_re[li]));
    worst = std::max(worst, std::abs(fast.phi_im[li] - ref.phi_im[li]));
    worst = std::max(worst, std::abs(fast.omega_re[li] - ref.omega_re[li]));
    worst = std::max(worst, std::abs(fast.omega_im[li] - ref.omega_im[li]));
  }
  EXPECT_LT(worst, 2e-5f);
  // Magnitudes stay on the unit circle.
  for (Index l = 0; l < 512; l += 61) {
    const auto li = static_cast<std::size_t>(l);
    EXPECT_NEAR(fast.phi_re[li] * fast.phi_re[li] +
                    fast.phi_im[li] * fast.phi_im[li],
                1.0f, 1e-4f);
  }
}

/// The bits of x, so that equality tells -0 from +0.
std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// How many doubles apart a and b are: 0 when equal, 1 for neighbours.
std::int64_t ulps_apart(double a, double b) {
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? -(i & std::numeric_limits<std::int64_t>::max()) : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

void expect_ramp(const RampSeeds& got, double value, double step,
                 double curve, const char* what) {
  EXPECT_EQ(bits_of(got.value), bits_of(value)) << what;
  EXPECT_EQ(bits_of(got.step), bits_of(step)) << what;
  EXPECT_EQ(bits_of(got.curve), bits_of(curve)) << what;
}

/// u = exp(i*u_phase), v = exp(i*v_phase), w = exp(i*w_phase), each by
/// unit_phase, or exactly 1 where the phase is absent.
void expect_phase(const PhaseSeeds& got, std::optional<double> u_phase,
                  double v_phase, std::optional<double> w_phase,
                  const char* what) {
  const std::complex<double> one(1.0, 0.0);
  const std::complex<double> u = u_phase ? unit_phase(*u_phase) : one;
  const std::complex<double> v = unit_phase(v_phase);
  const std::complex<double> w = w_phase ? unit_phase(*w_phase) : one;
  EXPECT_EQ(bits_of(got.u_re), bits_of(u.real())) << what;
  EXPECT_EQ(bits_of(got.u_im), bits_of(u.imag())) << what;
  EXPECT_EQ(bits_of(got.v_re), bits_of(v.real())) << what;
  EXPECT_EQ(bits_of(got.v_im), bits_of(v.imag())) << what;
  EXPECT_EQ(bits_of(got.w_re), bits_of(w.real())) << what;
  EXPECT_EQ(bits_of(got.w_im), bits_of(w.imag())) << what;
}

TEST(Tables, SeedsKeepTheirRounding) {
  // range_quadratic and table_seeds round where their contract
  // (asr/seed_lanes.h) says: each operation below rounds as it is written,
  // std::fma only where the contract fuses. This file is compiled with
  // -ffp-contract=off (tests/CMakeLists.txt), so the compiler fuses none of
  // its products, and a build of the seeds that fuses more fails here on
  // any -march. The phase seeds are unit_phase of phases computed here.
  // Geometries: both loop orders (under y_inner the sweep expands about
  // the swapped x and y), square and non-square blocks, pixel spacings
  // that differ along x and y, phases up to about 2^23 * 2*pi.
  Rng rng(4711);
  double largest_phase = 0.0;
  for (int trial = 0; trial < 48; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    geometry::Vec3 radar{rng.uniform(-45000, 45000),
                         rng.uniform(-45000, 45000), rng.uniform(2000, 9000)};
    geometry::Vec3 centre{rng.uniform(-900, 900), rng.uniform(-900, 900),
                          rng.uniform(-5, 5)};
    if (trial % 2 == 1) {  // y_inner: the l axis is the image's y
      std::swap(radar.x, radar.y);
      std::swap(centre.x, centre.y);
    }
    const double dx = rng.uniform(0.2, 1.5);
    const double dy = trial % 3 == 0 ? dx : rng.uniform(0.2, 1.5);
    const Index width = 1 + (trial * 37) % 130;
    const Index height = trial % 4 == 0 ? width : 1 + (trial * 53) % 97;
    const double two_pi_k = kTwoPi * rng.uniform(10.0, 130.0);
    const double dr = rng.uniform(0.1, 1.0);

    // range_quadratic: nothing fused.
    const double ux = centre.x - radar.x;
    const double uy = centre.y - radar.y;
    const double uz = centre.z - radar.z;
    const double f0 = std::sqrt(ux * ux + uy * uy + uz * uz);
    const double f03 = f0 * f0 * f0;
    const Quadratic2D q = range_quadratic(centre, radar, dx, dy);
    EXPECT_EQ(bits_of(q.f0), bits_of(f0));
    EXPECT_EQ(bits_of(q.ax), bits_of(dx * ux / f0));
    EXPECT_EQ(bits_of(q.ay), bits_of(dy * uy / f0));
    EXPECT_EQ(bits_of(q.bx), bits_of(dx * dx / (2.0 * f0) -
                                     dx * dx * ux * ux / (2.0 * f03)));
    EXPECT_EQ(bits_of(q.by), bits_of(dy * dy / (2.0 * f0) -
                                     dy * dy * uy * uy / (2.0 * f03)));
    EXPECT_EQ(bits_of(q.cxy), bits_of(-dx * dy * ux * uy / f03));

    // table_seeds: the fused steps of the contract, the rest as written.
    const double r0 = q.f0 - rng.uniform(0.0, 500.0);
    const TableSeeds s = table_seeds(q, r0, dr, two_pi_k, width, height);
    EXPECT_EQ(s.width, width);
    EXPECT_EQ(s.height, height);
    const double inv = 1.0 / dr;
    const double l0 = -0.5 * static_cast<double>(width - 1);
    const double m0 = -0.5 * static_cast<double>(height - 1);
    const double l_const = std::fma(q.bx * l0, l0, std::fma(q.ax, l0, q.f0));
    const double l_lin = std::fma(2.0 * q.bx, l0, q.ax);
    expect_ramp(s.bin_a, (l_const - r0) * inv, (l_lin + q.bx) * inv,
                2.0 * q.bx * inv, "bin_a");
    const double phi0 = two_pi_k * l_const;
    const double phi1 = two_pi_k * std::fma(q.cxy, m0, l_lin);
    const double phi2 = two_pi_k * q.bx;
    expect_phase(s.phi, phi0, phi1 + phi2, 2.0 * phi2, "phi");
    expect_phase(s.omega, std::nullopt, two_pi_k * q.cxy, std::nullopt,
                 "omega");
    const double a_eff = std::fma(q.cxy, l0, q.ay);
    const double m_const = std::fma(a_eff, m0, q.by * m0 * m0);
    const double m_lin = std::fma(2.0 * q.by, m0, a_eff);
    expect_ramp(s.bin_b, m_const * inv, (m_lin + q.by) * inv,
                2.0 * q.by * inv, "bin_b");
    expect_ramp(s.bin_c, q.cxy * m0 * inv, q.cxy * inv, 0.0, "bin_c");
    const double psi0 = two_pi_k * m_const;
    const double psi1 = two_pi_k * m_lin;
    const double psi2 = two_pi_k * q.by;
    expect_phase(s.psi, psi0, psi1 + psi2, 2.0 * psi2, "psi");
    largest_phase = std::max(largest_phase, std::abs(phi0));
  }
  // The spread reaches phases of 2^22 turns and more.
  EXPECT_GT(largest_phase, 4194304.0 * kTwoPi);
}

TEST(Tables, UnitPhaseWithinOneUlpOfLibm) {
  // The pinned sincos is within 1 ulp of std::cos / std::sin of the phase
  // after its reduction mod 2*pi, r = phase - n*fl(2*pi) in one fma as the
  // contract writes it: at the quadrant points 0, +-pi/4, ..., +-pi and
  // their neighbours, where the reduction to [-pi/4, pi/4] and the
  // quadrant choice change (r is the phase itself there, except past +-pi,
  // where it wraps to the other side), and for phases up to 2^23 * 2*pi.
  // The reduction's own error, n * (2*pi - fl(2*pi)) absolute, is the
  // double-precision reduction the tables have always had (paper §3.5).
  // exp(i*0) is exactly (1, +0).
  const std::complex<double> at_zero = unit_phase(0.0);
  EXPECT_EQ(bits_of(at_zero.real()), bits_of(1.0));
  EXPECT_EQ(bits_of(at_zero.imag()), bits_of(0.0));
  const double inv_two_pi = 0.5 * std::numbers::inv_pi;
  const auto expect_near_libm = [inv_two_pi](double phase) {
    const double reduced =
        std::fma(-std::nearbyint(phase * inv_two_pi), kTwoPi, phase);
    const std::complex<double> u = unit_phase(phase);
    EXPECT_LE(ulps_apart(u.real(), std::cos(reduced)), 1)
        << "phase " << phase << " cos " << u.real() << " vs "
        << std::cos(reduced);
    EXPECT_LE(ulps_apart(u.imag(), std::sin(reduced)), 1)
        << "phase " << phase << " sin " << u.imag() << " vs "
        << std::sin(reduced);
  };
  for (int eighth = -4; eighth <= 4; ++eighth) {
    double x = eighth * std::numbers::pi / 4.0;
    for (int step = 0; step < 4; ++step) x = std::nextafter(x, -10.0);
    for (int step = 0; step < 9; ++step) {
      expect_near_libm(x);
      x = std::nextafter(x, 10.0);
    }
  }
  Rng rng(2306);
  for (int i = 0; i < 20000; ++i) {
    const double turns = i % 2 == 0 ? 8388608.0 : 64.0;
    expect_near_libm(rng.uniform(-turns, turns) * kTwoPi);
  }
}

static_assert(std::is_trivially_copyable_v<BlockTables>);

/// Every array has its [L] or [M] length and starts on a 64-byte line.
void expect_layout(const BlockTables& t, Index w, Index h) {
  const auto lw = static_cast<std::size_t>(w);
  const auto lh = static_cast<std::size_t>(h);
  EXPECT_EQ(t.width, w);
  EXPECT_EQ(t.height, h);
  const std::pair<std::span<float>, std::size_t> arrays[] = {
      {t.bin_a, lw},    {t.phi_re, lw},   {t.phi_im, lw},
      {t.omega_re, lw}, {t.omega_im, lw}, {t.bin_b, lh},
      {t.bin_c, lh},    {t.psi_re, lh},   {t.psi_im, lh}};
  for (const auto& [array, length] : arrays) {
    EXPECT_EQ(array.size(), length) << w << "x" << h;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(array.data()) % kSimdAlign, 0u)
        << w << "x" << h;
  }
}

TEST(Tables, ViewsPadEveryArrayToWholeLines) {
  // Views of full, odd (edge-block) and degenerate shapes laid end to end
  // in one buffer, footprint_floats apart, as a plan's arena lays them:
  // each array is padded to whole 64-byte lines, and no view reaches into
  // the next.
  const std::pair<Index, Index> shapes[] = {{64, 64}, {33, 17}, {1, 1},
                                            {17, 33}};
  std::size_t total = 0;
  for (const auto& [w, h] : shapes) {
    EXPECT_EQ(BlockTables::footprint_floats(w, h) % 16, 0u);
    total += BlockTables::footprint_floats(w, h);
  }
  AlignedVector<float> storage(total);
  std::vector<BlockTables> views;
  float* next = storage.data();
  for (const auto& [w, h] : shapes) {
    views.emplace_back(next, w, h);
    expect_layout(views.back(), w, h);
    next += BlockTables::footprint_floats(w, h);
  }
  for (std::size_t i = 0; i + 1 < views.size(); ++i) {
    EXPECT_LE(views[i].psi_im.data() + views[i].psi_im.size(),
              views[i + 1].bin_a.data());
  }
  EXPECT_LE(views.back().psi_im.data() + views.back().psi_im.size(),
            storage.data() + storage.size());

  // A copy views the same floats; a build through it is seen by both.
  const Quadratic2D q =
      range_quadratic({10, -20, 0}, {15000, 3000, 8000}, 1.0, 1.0);
  const BlockTables copy = views[1];
  build_block_tables_fast(q, q.f0 - 100.0, 0.42, kTwoPi * 64.0, 33, 17,
                          views[1]);
  OwnedTables owned(33, 17);
  build_block_tables_fast(q, q.f0 - 100.0, 0.42, kTwoPi * 64.0, 33, 17,
                          owned.view);
  EXPECT_EQ(copy.phi_re.data(), views[1].phi_re.data());
  EXPECT_TRUE(std::equal(copy.phi_re.begin(), copy.phi_re.end(),
                         owned.view.phi_re.begin()));
  EXPECT_TRUE(std::equal(copy.omega_im.begin(), copy.omega_im.end(),
                         owned.view.omega_im.begin()));
  EXPECT_TRUE(std::equal(copy.psi_im.begin(), copy.psi_im.end(),
                         owned.view.psi_im.begin()));

  // A build into a view of other extents is refused.
  EXPECT_THROW(build_block_tables_fast(q, q.f0 - 100.0, 0.42, kTwoPi * 64.0,
                                       17, 33, views[1]),
               PreconditionError);
  EXPECT_THROW(BlockTables(storage.data() + 1, 8, 8), PreconditionError);
}

TEST(BlockPlan, CoversRegionExactlyOnce) {
  const auto blocks = plan_blocks(3, 5, 100, 70, 32, 32);
  Index covered = 0;
  for (const auto& b : blocks) {
    EXPECT_GE(b.x0, 3);
    EXPECT_GE(b.y0, 5);
    EXPECT_LE(b.x0 + b.width, 103);
    EXPECT_LE(b.y0 + b.height, 75);
    EXPECT_GT(b.width, 0);
    EXPECT_LE(b.width, 32);
    covered += b.width * b.height;
  }
  EXPECT_EQ(covered, 100 * 70);
  // No pairwise overlap (sampled).
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool overlap_x = blocks[i].x0 < blocks[j].x0 + blocks[j].width &&
                             blocks[j].x0 < blocks[i].x0 + blocks[i].width;
      const bool overlap_y = blocks[i].y0 < blocks[j].y0 + blocks[j].height &&
                             blocks[j].y0 < blocks[i].y0 + blocks[i].height;
      EXPECT_FALSE(overlap_x && overlap_y);
    }
  }
}

TEST(BlockPlan, ExactTilingHasUniformBlocks) {
  const auto blocks = plan_blocks(0, 0, 128, 128, 64, 64);
  EXPECT_EQ(blocks.size(), 4u);
  for (const auto& b : blocks) {
    EXPECT_EQ(b.width, 64);
    EXPECT_EQ(b.height, 64);
  }
}

TEST(BlockPlan, EmptyRegionYieldsNoBlocks) {
  EXPECT_TRUE(plan_blocks(0, 0, 0, 10, 8, 8).empty());
}

TEST(BlockPlan, RowMajorOrder) {
  const auto blocks = plan_blocks(0, 0, 64, 64, 32, 32);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].x0, 0);
  EXPECT_EQ(blocks[1].x0, 32);
  EXPECT_EQ(blocks[2].y0, 32);
}

}  // namespace
}  // namespace sarbp::asr
