// The per-table part of the ASR table build — the range quadratic
// (quadratic.h), the seeds of the table recurrences (tables.h) and the
// pinned sincos of their phases — written once as templates over a lane
// type L (paper §4.4: "it is important to also vectorize the
// pre-computation step"). asr/tables.cpp instantiates them with a scalar
// double (asr::range_quadratic, asr::table_seeds, asr::unit_phase); each
// per-ISA kernel TU instantiates them with its f64 vector, one table per
// lane (backprojection/kernel_asr_rows.h). A lane's seeds are thus the
// scalar seeds' bits by construction.
//
// Each operation is one L call, rounded where it is written: fmadd and
// fnmadd fuse, nothing else does. Every TU that instantiates these is
// compiled with -ffp-contract=off, so the compiler fuses nothing more on
// any -march (DESIGN.md §12, "The table build").
//
// An L, declared in its TU's anonymous namespace, provides the lane type D
// and its lane mask M, and:
//  - set1(x); add, sub, mul, div, sqrt; neg(a), a with its sign flipped;
//  - fmadd(a, b, c) = a*b + c and fnmadd(a, b, c) = c - a*b, each rounded
//    once;
//  - round(a): the nearest integer, ties to even;
//  - gt, ge, le, eq: ordered compares to an M; either(m, n), the lanes of
//    either mask; select(m, a, b): a in the lanes of m, b elsewhere.
//
// Every L has internal linkage, so every instantiation does too: no code
// compiled for one -march can be merged into another TU (DESIGN.md §12,
// "Per-ISA TUs and ODR"). So this header holds templates and scalar
// constants only (an array would be a global symbol wherever a build
// leaves it in memory), and no intrinsic or vector type.
#pragma once

#include <numbers>

namespace sarbp::asr::lanes {

/// The pinned sincos's constants (unit_phase): 2*pi and 1/(2*pi) for the
/// reduction mod 2*pi; 2/pi for the quadrant; pi/2 as a two-term
/// Cody–Waite pair, hi the double nearest pi/2 and lo the double nearest
/// pi/2 - hi. Each product below is the double nearest the constant it
/// names (a power-of-two scaling is exact).
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;
inline constexpr double kInvTwoPi = 0.5 * std::numbers::inv_pi;
inline constexpr double kTwoOverPi = 2.0 * std::numbers::inv_pi;
inline constexpr double kPiOver2Hi = 0.5 * std::numbers::pi;
inline constexpr double kPiOver2Lo = 6.123233995736766e-17;

/// The coefficients of asr::Quadratic2D in lanes.
template <class L>
struct Quadratic {
  typename L::D f0, ax, ay, bx, by, cxy;
};

/// asr::RampSeeds, asr::PhaseSeeds and asr::TableSeeds's nine arrays'
/// seeds, in lanes.
template <class L>
struct Ramp {
  typename L::D value, step, curve;
};

template <class L>
struct Phase {
  typename L::D u_re, u_im, v_re, v_im, w_re, w_im;
};

template <class L>
struct Seeds {
  Ramp<L> bin_a, bin_b, bin_c;
  Phase<L> phi, omega, psi;
};

/// The range quadratic (asr::range_quadratic) of u = centre - radar with
/// pixel spacings dx, dy, nothing fused:
///   f0 = sqrt((ux*ux + uy*uy) + uz*uz),  f03 = (f0*f0)*f0,
///   ax = (dx*ux)/f0,  ay = (dy*uy)/f0,
///   bx = (dx*dx)/(2*f0) - (((dx*dx)*ux)*ux)/(2*f03),  by likewise,
///   cxy = ((((-dx)*dy)*ux)*uy)/f03.
/// A lane whose radar sits on the centre gets f0 = 0 and non-finite
/// coefficients; its caller refuses it (f0 > 0 fails).
template <class L, class D = typename L::D>
Quadratic<L> range_quadratic(D ux, D uy, D uz, D dx, D dy) {
  const D f0 = L::sqrt(
      L::add(L::add(L::mul(ux, ux), L::mul(uy, uy)), L::mul(uz, uz)));
  const D f03 = L::mul(L::mul(f0, f0), f0);
  const D two = L::set1(2.0);
  const D two_f0 = L::mul(two, f0);
  const D two_f03 = L::mul(two, f03);
  const D dx2 = L::mul(dx, dx);
  const D dy2 = L::mul(dy, dy);
  Quadratic<L> q;
  q.f0 = f0;
  q.ax = L::div(L::mul(dx, ux), f0);
  q.ay = L::div(L::mul(dy, uy), f0);
  q.bx = L::sub(L::div(dx2, two_f0),
                L::div(L::mul(L::mul(dx2, ux), ux), two_f03));
  q.by = L::sub(L::div(dy2, two_f0),
                L::div(L::mul(L::mul(dy2, uy), uy), two_f03));
  q.cxy = L::div(L::mul(L::mul(L::mul(L::neg(dx), dy), ux), uy), f03);
  return q;
}

/// exp(i*phase) as (re, im), the pinned sincos:
///  1. n = round(phase / (2*pi)) by a product with 1/(2*pi), and r =
///     phase - n*2*pi in one fma: r lies in [-pi, pi] up to rounding;
///  2. q = round(r * 2/pi), in {-2, ..., 2}, and y = r - q*pi/2 by two
///     Cody–Waite fmas (hi, then lo): y lies in [-pi/4, pi/4];
///  3. degree-13 sin and degree-14 cos minimax kernels in z = y*y by
///     Horner's rule, each step one fma; sin y = fma(y*z, P(z), y), cos y
///     = fma(z, Q(z), 1);
///  4. sin and cos of y + q*pi/2 by compares on q: q = +-1 swaps them, and
///     sin is negated for q in {-2, -1, 2}, cos for q in {-2, 1, 2}.
/// exp(i*0) is exactly (1, +0).
template <class L, class D = typename L::D>
void unit_phase(D phase, D& re, D& im) {
  // Minimax kernels on [-pi/4, pi/4] (fdlibm's __kernel_sin and
  // __kernel_cos coefficients):
  //   sin y = y + y^3 (S1 + z S2 + ... + z^5 S6),               z = y^2,
  //   cos y = 1 + z (-1/2 + z (C1 + z C2 + ... + z^5 C6)).
  // Statics of the template, which has its L's internal linkage, so that
  // no build emits them as a global symbol of a per-ISA object
  // (tools/check_isa_linkage.py).
  static constexpr double kSin[] = {
      -1.66666666666666324348e-01, 8.33333333332248946124e-03,
      -1.98412698298579493134e-04, 2.75573137070700676789e-06,
      -2.50507602534068634195e-08, 1.58969099521155010221e-10};
  static constexpr double kCos[] = {
      4.16666666666666019037e-02,  -1.38888888888741095749e-03,
      2.48015872894767294178e-05,  -2.75573143513906633035e-07,
      2.08757232129817482790e-09,  -1.13596475577881948265e-11};
  const D n = L::round(L::mul(phase, L::set1(kInvTwoPi)));
  const D r = L::fnmadd(n, L::set1(kTwoPi), phase);
  const D q = L::round(L::mul(r, L::set1(kTwoOverPi)));
  const D y = L::fnmadd(q, L::set1(kPiOver2Lo),
                        L::fnmadd(q, L::set1(kPiOver2Hi), r));
  const D z = L::mul(y, y);
  D p = L::set1(kSin[5]);
  for (int k = 4; k >= 0; --k) p = L::fmadd(z, p, L::set1(kSin[k]));
  const D s = L::fmadd(L::mul(y, z), p, y);
  p = L::set1(kCos[5]);
  for (int k = 4; k >= 0; --k) p = L::fmadd(z, p, L::set1(kCos[k]));
  p = L::fmadd(z, p, L::set1(-0.5));
  const D c = L::fmadd(z, p, L::set1(1.0));
  const auto odd = L::either(L::eq(q, L::set1(1.0)), L::eq(q, L::set1(-1.0)));
  const D sin_y = L::select(odd, c, s);
  const D cos_y = L::select(odd, s, c);
  im = L::select(L::either(L::le(q, L::set1(-1.0)), L::eq(q, L::set1(2.0))),
                 L::neg(sin_y), sin_y);
  re = L::select(L::either(L::ge(q, L::set1(1.0)), L::eq(q, L::set1(-2.0))),
                 L::neg(cos_y), cos_y);
}

/// Seeds of exp(i*(c0 + c1*j + c2*j^2)): u = exp(i*c0), v = exp(i*(c1 +
/// c2)) and w = exp(i*(2*c2)).
template <class L, class D = typename L::D>
Phase<L> phase_seeds(D c0, D c1, D c2) {
  Phase<L> s;
  unit_phase<L>(c0, s.u_re, s.u_im);
  unit_phase<L>(L::add(c1, c2), s.v_re, s.v_im);
  unit_phase<L>(L::mul(L::set1(2.0), c2), s.w_re, s.w_im);
  return s;
}

/// asr::table_seeds in lanes: the seeds of one table set from its range
/// quadratic q, r0 = start_range, dr = bin_spacing, 2*pi*k and the
/// centred offsets of index 0, l0 = -(L - 1)/2 and m0 = -(M - 1)/2. The
/// fused steps are the ones written; with inv = 1/dr:
///   l_const = fma(bx*l0, l0, fma(ax, l0, f0)),  l_lin = fma(2*bx, l0, ax),
///   A: {(l_const - r0)*inv, (l_lin + bx)*inv, (2*bx)*inv},
///   Phi': phases 2pik*l_const, 2pik*fma(cxy, m0, l_lin), 2pik*bx,
///   Omega: v = exp(i*2pik*cxy), u = w = 1,
///   a' = fma(cxy, l0, ay),  m_const = fma(a', m0, (by*m0)*m0),
///   m_lin = fma(2*by, m0, a'),
///   B: {m_const*inv, (m_lin + by)*inv, (2*by)*inv},
///   C: {(cxy*m0)*inv, cxy*inv, 0},
///   Psi: phases 2pik*m_const, 2pik*m_lin, 2pik*by.
template <class L, class D = typename L::D>
Seeds<L> table_seeds(const Quadratic<L>& q, D start_range, D bin_spacing,
                     D two_pi_k, D l0, D m0) {
  const D inv_dr = L::div(L::set1(1.0), bin_spacing);
  const D two = L::set1(2.0);
  const D one = L::set1(1.0);
  const D zero = L::set1(0.0);
  Seeds<L> s;

  // --- l axis: range_l(j) = f0 + ax*(j+l0) + bx*(j+l0)^2, j = 0..L-1.
  // bin_a is the second-order additive recurrence of the §3.2
  // pre-computation. Phi' adds the cross term's row-0 part cxy*m0*j to
  // Phi's linear phase; Omega is the cross term's column step cxy*j.
  const D two_bx = L::mul(two, q.bx);
  const D l_const =
      L::fmadd(L::mul(q.bx, l0), l0, L::fmadd(q.ax, l0, q.f0));
  const D l_lin = L::fmadd(two_bx, l0, q.ax);
  s.bin_a = {L::mul(L::sub(l_const, start_range), inv_dr),
             L::mul(L::add(l_lin, q.bx), inv_dr), L::mul(two_bx, inv_dr)};
  s.phi = phase_seeds<L>(L::mul(two_pi_k, l_const),
                         L::mul(two_pi_k, L::fmadd(q.cxy, m0, l_lin)),
                         L::mul(two_pi_k, q.bx));
  s.omega = {one, zero, one, zero, one, zero};
  unit_phase<L>(L::mul(two_pi_k, q.cxy), s.omega.v_re, s.omega.v_im);

  // --- m axis: range_m(j) = a'*(j+m0) + by*(j+m0)^2 with the cross term's
  // l-offset folded in (a' = ay + cxy*l0).
  const D two_by = L::mul(two, q.by);
  const D a_eff = L::fmadd(q.cxy, l0, q.ay);
  const D m_const = L::fmadd(a_eff, m0, L::mul(L::mul(q.by, m0), m0));
  const D m_lin = L::fmadd(two_by, m0, a_eff);
  s.bin_b = {L::mul(m_const, inv_dr), L::mul(L::add(m_lin, q.by), inv_dr),
             L::mul(two_by, inv_dr)};
  s.bin_c = {L::mul(L::mul(q.cxy, m0), inv_dr), L::mul(q.cxy, inv_dr), zero};
  s.psi = phase_seeds<L>(L::mul(two_pi_k, m_const), L::mul(two_pi_k, m_lin),
                         L::mul(two_pi_k, q.by));
  return s;
}

}  // namespace sarbp::asr::lanes
