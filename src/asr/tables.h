// Strength-reduced per-block lookup tables (paper Fig. 3(b) line 02:
// "pre-compute A, B, C, Phi, Psi and Gamma").
//
// After the quadratic approximation r~(l, m) (quadratic.h), both inner-loop
// math functions collapse to table reads plus a recurrence:
//
//   bin(l, m) = A[l] + B[m] + l * C[m]                       (pure FMA)
//   arg(l, m) = chi(l, m) * Psi[m],  chi(l, 0) = Phi'[l],
//               chi(l, m + 1) = chi(l, m) * Omega[l]        (complex muls)
//
// with l, m the 0-based indices inside the block. The paper's row chain
// gamma *= Gamma[m] carries the cross term c_xy*l*m along l; since
// Gamma[m]^l = Gamma[0]^l * Omega[l]^m with Omega[l] = exp(i*2*pi*k*c_xy*l),
// Phi' = Phi * Gamma[0]^l absorbs the first factor and each pixel's column
// chain steps by Omega[l] from row to row. The centred-expansion
// bookkeeping (paper footnote 4) is folded into the tables themselves:
// A/Phi' absorb the block-centre offset along l, B/Psi absorb it along m
// and the cross-term's l-offset contribution.
//
// The tables are *computed in double* — including the mod-2*pi reduction of
// the huge 2*pi*k*f0 constant phase — and *stored in float*, which is what
// lets the inner loop run entirely in single precision at full accuracy
// (paper §3.5, §5.2.1).
//
// A BlockTables owns nothing: it views floats that its owner lays out. A
// formation plan keeps every (block, pulse) table and its view in one page
// arena (service/plan_cache.h); the on-the-fly sweep keeps one lane group
// of tables in per-thread scratch (backprojection/asr_sweep.cpp); other
// callers keep one buffer of footprint_floats per table.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "asr/quadratic.h"
#include "common/types.h"

namespace sarbp::asr {

/// One (block, pulse) pair's tables: a view of nine arrays in storage its
/// owner keeps (a formation plan's arena, a sweep's scratch buffer), each
/// array padded to a multiple of 16 floats so that every array starts on a
/// 64-byte boundary. Only an array's first L or M entries are live: the
/// builds write only those, and every kernel reads only those (a row's
/// tail is a masked load), so the padding may hold anything. Copying a
/// view copies no table.
struct BlockTables {
  Index width = 0;   ///< L: block extent along l (the inner/x loop)
  Index height = 0;  ///< M: block extent along m (the outer/y loop)

  std::span<float> bin_a;  ///< [L]
  std::span<float> bin_b;  ///< [M]
  std::span<float> bin_c;  ///< [M]

  std::span<float> phi_re, phi_im;      ///< [L] Phi'[l], chi's row-0 value
  std::span<float> omega_re, omega_im;  ///< [L] chi's step factor Omega[l]
  std::span<float> psi_re, psi_im;      ///< [M]

  BlockTables() = default;
  /// Views the w x h tables at `storage`: footprint_floats(w, h) floats,
  /// 64-byte aligned.
  BlockTables(float* storage, Index w, Index h);

  /// Floats a w x h table set occupies, padding included.
  [[nodiscard]] static std::size_t footprint_floats(Index w, Index h);
};

/// Fills `tables`, a width x height view, for one (block, pulse) pair.
///   q:            range quadratic about the block centre (centred indices)
///   start_range:  r0 — slant range of range bin 0 for this pulse
///   bin_spacing:  dr
///   two_pi_k:     2*pi*k with k the carrier wavenumber factor
void build_block_tables(const Quadratic2D& q, double start_range,
                        double bin_spacing, double two_pi_k, Index width,
                        Index height, BlockTables& tables);

/// Seeds of one additive table X (bin_a, bin_b, bin_c):
///   X[0] = value,  X[j+1] = X[j] + D[j],  D[0] = step,  D[j+1] = D[j] + curve.
struct RampSeeds {
  double value = 0.0;
  double step = 0.0;
  double curve = 0.0;
};

/// Seeds of one phase table U = exp(i*(c0 + c1*j + c2*j^2)) (Phi', Omega,
/// Psi), a two-level complex recurrence:
///   U[0] = u,  U[j+1] = U[j]*V[j],  V[0] = v,  V[j+1] = V[j]*w,
/// with u = exp(i*c0), v = exp(i*(c1 + c2)), w = exp(2i*c2).
struct PhaseSeeds {
  double u_re = 1.0, u_im = 0.0;
  double v_re = 1.0, v_im = 0.0;
  double w_re = 1.0, w_im = 0.0;
};

/// Every input of one table's recurrences: the extents and the seeds of
/// its nine arrays. The seeds are the per-table part of the build (the
/// range quadratic's constants and seven pinned sincos, unit_phase); the
/// recurrences expand them. A vector build runs both one table per lane
/// (asr/seed_lanes.h, backprojection/kernel_asr_rows.h).
struct TableSeeds {
  Index width = 0;   ///< L
  Index height = 0;  ///< M
  RampSeeds bin_a, bin_b, bin_c;
  PhaseSeeds phi, omega, psi;
};

/// A phase table renormalizes U and V after entry j when
/// (j & kRenormMask) == kRenormMask and a later entry follows.
inline constexpr Index kRenormMask = 63;

/// exp(i*phase) by the table build's pinned sincos (asr/seed_lanes.h): a
/// reduction mod 2*pi in one fma, two Cody–Waite fmas to [-pi/4, pi/4],
/// degree-13/14 minimax kernels in explicit fma and the quadrant chosen by
/// compares. Within 1 ulp of std::cos/std::sin of the reduced phase; every
/// vector ISA's lanes give its bits, which glibc's vector sincos do not.
[[nodiscard]] std::complex<double> unit_phase(double phase);

/// The seeds of build_block_tables_fast (arguments as build_block_tables),
/// in the operations asr/seed_lanes.h pins (lanes::table_seeds). The
/// vector table build computes them in its lanes with the same template,
/// so every ISA's tables are this function's bits.
[[nodiscard]] TableSeeds table_seeds(const Quadratic2D& q,
                                     double start_range, double bin_spacing,
                                     double two_pi_k, Index width,
                                     Index height);

/// Expands `seeds` into `tables`, a seeds.width x seeds.height view: the
/// scalar recurrences. Their rounding is pinned so that a vector build
/// can repeat them lane for lane, byte for byte:
///  - a ramp entry is float(X[j]); X and D advance with one double add each;
///  - a phase entry is (float(Re U[j]), float(Im U[j])); each complex step
///    a*b is re = fma(a.re, b.re, -(a.im*b.im)), im = fma(a.re, b.im,
///    a.im*b.re), U first, then V;
///  - the renormalization divides re and im by sqrt(fma(re, re, im*im)),
///    U first, then V;
///  - nothing is stepped or renormalized after a table's last entry.
void expand_table_seeds(const TableSeeds& seeds, BlockTables& tables);

/// Fast table construction (paper §4.4: "it is important to also vectorize
/// the pre-computation step"): the phases of Phi'/Omega/Psi are quadratic
/// (or linear) in the index, so each table follows a two-level complex
/// recurrence — U[l+1] = U[l]*V[l], V[l+1] = V[l]*W — seeded by at most
/// three exact complex exponentials per table (Omega's U and W are exactly
/// 1). All per-entry sin/cos calls disappear; the double-precision
/// recurrence (renormalized every 64 steps) holds the error at the
/// float-storage floor for any practical block size. table_seeds +
/// expand_table_seeds; produces tables interchangeable with
/// build_block_tables.
void build_block_tables_fast(const Quadratic2D& q, double start_range,
                             double bin_spacing, double two_pi_k, Index width,
                             Index height, BlockTables& tables);

/// Reconstructs bin(l, m) from the tables — the scalar identity the SIMD
/// kernels must match; used by tests.
[[nodiscard]] inline float table_bin(const BlockTables& t, Index l, Index m) {
  return t.bin_a[static_cast<std::size_t>(l)] +
         t.bin_b[static_cast<std::size_t>(m)] +
         static_cast<float>(l) * t.bin_c[static_cast<std::size_t>(m)];
}

}  // namespace sarbp::asr
