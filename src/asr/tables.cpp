#include "asr/tables.h"

#include <cmath>
#include <complex>
#include <cstdint>

#include "asr/seed_lanes.h"
#include "common/check.h"
#include "signal/trig.h"

namespace sarbp::asr {
namespace {

/// asr/seed_lanes.h's L in one double: the reference every vector lane
/// repeats. This TU is compiled with -ffp-contract=off, so each operation
/// rounds where it is written.
struct Scalar {
  using D = double;
  using M = bool;
  static D set1(double x) { return x; }
  static D add(D a, D b) { return a + b; }
  static D sub(D a, D b) { return a - b; }
  static D mul(D a, D b) { return a * b; }
  static D div(D a, D b) { return a / b; }
  static D sqrt(D a) { return std::sqrt(a); }
  static D neg(D a) { return -a; }
  static D fmadd(D a, D b, D c) { return std::fma(a, b, c); }
  static D fnmadd(D a, D b, D c) { return std::fma(-a, b, c); }
  static D round(D a) { return std::nearbyint(a); }
  static M gt(D a, D b) { return a > b; }
  static M ge(D a, D b) { return a >= b; }
  static M le(D a, D b) { return a <= b; }
  static M eq(D a, D b) { return a == b; }
  static M either(M a, M b) { return a || b; }
  static D select(M m, D a, D b) { return m ? a : b; }
};

RampSeeds ramp_seeds(const lanes::Ramp<Scalar>& s) {
  return {s.value, s.step, s.curve};
}

PhaseSeeds phase_seeds(const lanes::Phase<Scalar>& s) {
  return {s.u_re, s.u_im, s.v_re, s.v_im, s.w_re, s.w_im};
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

Quadratic2D range_quadratic(const geometry::Vec3& centre,
                            const geometry::Vec3& radar, double dx,
                            double dy) {
  const geometry::Vec3 u = centre - radar;
  const lanes::Quadratic<Scalar> q =
      lanes::range_quadratic<Scalar>(u.x, u.y, u.z, dx, dy);
  ensure(q.f0 > 0.0, "range_quadratic: radar coincides with block centre");
  return {q.f0, q.ax, q.ay, q.bx, q.by, q.cxy};
}

std::complex<double> unit_phase(double phase) {
  double re = 0.0;
  double im = 0.0;
  lanes::unit_phase<Scalar>(phase, re, im);
  return {re, im};
}

TableSeeds table_seeds(const Quadratic2D& q, double start_range,
                       double bin_spacing, double two_pi_k, Index width,
                       Index height) {
  const lanes::Seeds<Scalar> s = lanes::table_seeds<Scalar>(
      {q.f0, q.ax, q.ay, q.bx, q.by, q.cxy}, start_range, bin_spacing,
      two_pi_k, -0.5 * static_cast<double>(width - 1),
      -0.5 * static_cast<double>(height - 1));
  TableSeeds seeds;
  seeds.width = width;
  seeds.height = height;
  seeds.bin_a = ramp_seeds(s.bin_a);
  seeds.bin_b = ramp_seeds(s.bin_b);
  seeds.bin_c = ramp_seeds(s.bin_c);
  seeds.phi = phase_seeds(s.phi);
  seeds.omega = phase_seeds(s.omega);
  seeds.psi = phase_seeds(s.psi);
  return seeds;
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
