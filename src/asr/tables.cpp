#include "asr/tables.h"

#include <cmath>
#include <complex>
#include <cstdint>

#include "common/check.h"
#include "signal/trig.h"

namespace sarbp::asr {
namespace {

/// Unit complex number for a (large) phase, reduced in double.
std::complex<double> unit_phase(double phase) {
  const double reduced = signal::reduce_to_pi(phase);
  return {std::cos(reduced), std::sin(reduced)};
}

/// Seeds of exp(i*(c0 + c1*j + c2*j^2)). U = exp(i*c0) and W = exp(2i*c2)
/// are exactly 1 when c0 and c2 are zero (Omega, a linear phase from 0), so
/// no sincos is spent on them.
PhaseSeeds phase_seeds(double c0, double c1, double c2) {
  PhaseSeeds s;
  if (c0 != 0.0) {
    const std::complex<double> u = unit_phase(c0);
    s.u_re = u.real();
    s.u_im = u.imag();
  }
  const std::complex<double> v = unit_phase(c1 + c2);  // phase(1) - phase(0)
  s.v_re = v.real();
  s.v_im = v.imag();
  if (c2 != 0.0) {
    const std::complex<double> w = unit_phase(2.0 * c2);
    s.w_re = w.real();
    s.w_im = w.imag();
  }
  return s;
}

/// a *= b with the rounding pinned (expand_table_seeds).
inline void complex_step(double& a_re, double& a_im, double b_re,
                         double b_im) {
  const double re = std::fma(a_re, b_re, -(a_im * b_im));
  a_im = std::fma(a_re, b_im, a_im * b_re);
  a_re = re;
}

inline void renormalize(double& re, double& im) {
  const double norm = std::sqrt(std::fma(re, re, im * im));
  re /= norm;
  im /= norm;
}

void ramp_table(const RampSeeds& s, Index n, float* out) {
  double value = s.value;
  double step = s.step;
  for (Index j = 0; j < n; ++j) {
    out[j] = static_cast<float>(value);
    value += step;
    step += s.curve;
  }
}

void phase_table(const PhaseSeeds& s, Index n, float* out_re,
                 float* out_im) {
  double u_re = s.u_re;
  double u_im = s.u_im;
  double v_re = s.v_re;
  double v_im = s.v_im;
  for (Index j = 0;; ++j) {
    out_re[j] = static_cast<float>(u_re);
    out_im[j] = static_cast<float>(u_im);
    if (j + 1 == n) return;
    complex_step(u_re, u_im, v_re, v_im);
    complex_step(v_re, v_im, s.w_re, s.w_im);
    if ((j & kRenormMask) == kRenormMask) {
      renormalize(u_re, u_im);
      renormalize(v_re, v_im);
    }
  }
}

/// Floats one array of n entries occupies: a whole number of 64-byte lines.
std::size_t padded(Index n) {
  constexpr std::size_t kLine = kSimdAlign / sizeof(float);
  return (static_cast<std::size_t>(n) + kLine - 1) / kLine * kLine;
}

}  // namespace

BlockTables::BlockTables(float* storage, Index w, Index h)
    : width(w), height(h) {
  ensure(w > 0 && h > 0, "BlockTables: block must be non-empty");
  ensure(reinterpret_cast<std::uintptr_t>(storage) % kSimdAlign == 0,
         "BlockTables: storage must be 64-byte aligned");
  float* next = storage;
  const auto take = [&next](Index n) {
    const std::span<float> array(next, static_cast<std::size_t>(n));
    next += padded(n);
    return array;
  };
  bin_a = take(w);
  phi_re = take(w);
  phi_im = take(w);
  omega_re = take(w);
  omega_im = take(w);
  bin_b = take(h);
  bin_c = take(h);
  psi_re = take(h);
  psi_im = take(h);
}

std::size_t BlockTables::footprint_floats(Index w, Index h) {
  return 5 * padded(w) + 4 * padded(h);
}

void build_block_tables(const Quadratic2D& q, double start_range,
                        double bin_spacing, double two_pi_k, Index width,
                        Index height, BlockTables& tables) {
  ensure(tables.width == width && tables.height == height,
         "build_block_tables: tables must view width x height");
  const double inv_dr = 1.0 / bin_spacing;
  // Centred offset of index 0 along each axis (expansion is about the
  // block centre; paper footnote 4).
  const double l0 = -0.5 * static_cast<double>(width - 1);
  const double m0 = -0.5 * static_cast<double>(height - 1);

  for (Index l = 0; l < width; ++l) {
    const auto i = static_cast<std::size_t>(l);
    const double lc = static_cast<double>(l) + l0;
    const double range_l = q.f0 + q.ax * lc + q.bx * lc * lc;
    tables.bin_a[i] = static_cast<float>((range_l - start_range) * inv_dr);
    // Phi'[l] carries the enormous constant phase 2*pi*k*f0; reduce in
    // double *before* the trig evaluation — this is the step the baseline
    // pays for on every pixel and ASR pays for only once per block column.
    // It also carries the cross term's row-0 part, c_xy*m0*l.
    const double cross = q.cxy * static_cast<double>(l);
    const double phase =
        signal::reduce_to_pi(two_pi_k * (range_l + cross * m0));
    tables.phi_re[i] = static_cast<float>(std::cos(phase));
    tables.phi_im[i] = static_cast<float>(std::sin(phase));
    const double omega_phase = signal::reduce_to_pi(two_pi_k * cross);
    tables.omega_re[i] = static_cast<float>(std::cos(omega_phase));
    tables.omega_im[i] = static_cast<float>(std::sin(omega_phase));
  }

  for (Index m = 0; m < height; ++m) {
    const double mc = static_cast<double>(m) + m0;
    const double cross = q.cxy * mc;  // d(bin)/dl contribution per unit l
    tables.bin_c[static_cast<std::size_t>(m)] = static_cast<float>(cross * inv_dr);
    // B absorbs the l-offset part of the cross term: l_c = l + l0.
    const double range_m = q.ay * mc + q.by * mc * mc + cross * l0;
    tables.bin_b[static_cast<std::size_t>(m)] = static_cast<float>(range_m * inv_dr);
    const double psi_phase = signal::reduce_to_pi(two_pi_k * range_m);
    tables.psi_re[static_cast<std::size_t>(m)] = static_cast<float>(std::cos(psi_phase));
    tables.psi_im[static_cast<std::size_t>(m)] = static_cast<float>(std::sin(psi_phase));
  }
}

TableSeeds table_seeds(const Quadratic2D& q, double start_range,
                       double bin_spacing, double two_pi_k, Index width,
                       Index height) {
  TableSeeds s;
  s.width = width;
  s.height = height;
  const double inv_dr = 1.0 / bin_spacing;
  const double l0 = -0.5 * static_cast<double>(width - 1);
  const double m0 = -0.5 * static_cast<double>(height - 1);

  // --- l axis: range_l(j) = f0 + ax*(j+l0) + bx*(j+l0)^2, j = 0..width-1.
  // bin_a is the second-order additive recurrence of the §3.2
  // pre-computation. Phi' adds the cross term's row-0 part cxy*m0*j to
  // Phi's linear phase; Omega is the cross term's column step cxy*j.
  const double l_const = q.f0 + q.ax * l0 + q.bx * l0 * l0;
  const double l_lin = q.ax + 2.0 * q.bx * l0;
  s.bin_a = {(l_const - start_range) * inv_dr, (l_lin + q.bx) * inv_dr,
             2.0 * q.bx * inv_dr};
  s.phi = phase_seeds(two_pi_k * l_const, two_pi_k * (l_lin + q.cxy * m0),
                      two_pi_k * q.bx);
  s.omega = phase_seeds(0.0, two_pi_k * q.cxy, 0.0);

  // --- m axis: range_m(j) = a'*(j+m0) + by*(j+m0)^2 with the cross term's
  // l-offset folded in (a' = ay + cxy*l0).
  const double a_eff = q.ay + q.cxy * l0;
  const double m_const = a_eff * m0 + q.by * m0 * m0;
  const double m_lin = a_eff + 2.0 * q.by * m0;
  s.bin_b = {m_const * inv_dr, (m_lin + q.by) * inv_dr, 2.0 * q.by * inv_dr};
  s.bin_c = {q.cxy * m0 * inv_dr, q.cxy * inv_dr, 0.0};
  s.psi = phase_seeds(two_pi_k * m_const, two_pi_k * m_lin, two_pi_k * q.by);
  return s;
}

void expand_table_seeds(const TableSeeds& s, BlockTables& tables) {
  ensure(tables.width == s.width && tables.height == s.height,
         "expand_table_seeds: tables must view the seeds' extents");
  ramp_table(s.bin_a, s.width, tables.bin_a.data());
  phase_table(s.phi, s.width, tables.phi_re.data(), tables.phi_im.data());
  phase_table(s.omega, s.width, tables.omega_re.data(),
              tables.omega_im.data());
  ramp_table(s.bin_b, s.height, tables.bin_b.data());
  ramp_table(s.bin_c, s.height, tables.bin_c.data());
  phase_table(s.psi, s.height, tables.psi_re.data(), tables.psi_im.data());
}

void build_block_tables_fast(const Quadratic2D& q, double start_range,
                             double bin_spacing, double two_pi_k, Index width,
                             Index height, BlockTables& tables) {
  expand_table_seeds(
      table_seeds(q, start_range, bin_spacing, two_pi_k, width, height),
      tables);
}

}  // namespace sarbp::asr
