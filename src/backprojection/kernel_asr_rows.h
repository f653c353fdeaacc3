// The ASR row kernels and the lane-per-table build of both vector ISAs
// (paper §4.4), written once as templates over traits types. The paper
// runs one vectorized inner loop at two widths; kernel_asr_avx2.cpp (8 f32
// / 4 f64 lanes) and kernel_asr_avx512.cpp (16 / 8) each supply a V (the
// f32 row lanes), a T (the f64 table lanes), their sample loads and their
// AsrIsaOps table, and instantiate what is here: the row sweep (rows_impl,
// lanes along l) and the table build (build_tables, seeds and expansion
// one table set per lane). The row sweep steps each pixel's column chain
// in the portable sweep's pinned forms at either width, so both ISAs give
// its bytes (asr_sweep.cpp); the table build computes asr::table_seeds's
// seeds with its template (asr/seed_lanes.h) and expands them in
// asr::expand_table_seeds's pinned forms, so both give its tables.
//
// A V, declared in its TU's anonymous namespace, provides:
//  - F, I, M: the f32 vector, its i32 lanes and its lane mask; kWidth
//    lanes, and kStrip, the vectors along l whose chains a strip keeps in
//    registers down a block's rows;
//  - set1, iota, add, sub, mul, fmadd, fmsub on F, and add(a, b, ok): a + b
//    in the lanes of `ok`, a elsewhere;
//  - first_lanes(n): the mask of lanes [0, n), 1 <= n <= kWidth;
//  - load(p), load(p, live), store(p, v), store(p, v, live): unaligned f32
//    loads and stores, masked lanes untouched (a masked load reads 0);
//  - truncate, to_float, and bin_ok(bin, samples): the lanes whose bin is
//    in [0, samples - 1), two float compares, the portable sweep's check;
//    both(a, b): the lanes live in both masks.
// A T is described with the table build below.
//
// Every V and T has internal linkage, so every instantiation does too: no
// code compiled for one -march can be COMDAT-merged into the other TU
// (DESIGN.md §12, "Per-ISA TUs and ODR"). So this header holds templates
// only, and no intrinsic or vector type (the `isa-intrinsics` lint rule);
// tools/check_isa_linkage.py checks the objects' symbols.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

#include "asr/seed_lanes.h"
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/types.h"

namespace sarbp::bp::detail {

/// Fused or split multiply-add: the only difference between the fused
/// variants and kGatherNoFma.
template <class V, bool kFma, class F>
F madd(F a, F b, F c) {
  if constexpr (kFma) {
    return V::fmadd(a, b, c);
  } else {
    return V::add(V::mul(a, b), c);
  }
}

template <class V, bool kFma, class F>
F msub(F a, F b, F c) {
  if constexpr (kFma) {
    return V::fmsub(a, b, c);
  } else {
    return V::sub(V::mul(a, b), c);
  }
}

/// f(std::integral_constant<int, k>{}) for k = 0, ..., N - 1, in order, so
/// an array indexed by k keeps constant indices and stays in registers.
template <int N, class Fn>
void unrolled(Fn&& f) {
  [&]<int... K>(std::integer_sequence<int, K...>) {
    (f(std::integral_constant<int, K>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

/// One strip of the row sweep: pixels [l0, l0 + N * W) of every row, W =
/// V::kWidth, their column chains in registers (DESIGN.md §12, "Column
/// chains"). Vector k holds chi = Phi'[l] * Omega[l]^m of its lanes' l at
/// row m, Omega[l], its l and A[l], loaded once; a row then costs it three
/// complex products: a = chi * Psi[m], Out += a * sample and chi *=
/// Omega[l], each re = msub(x.re, y.re, x.im * y.im), im = madd(x.re,
/// y.im, x.im * y.re). When kMasked, the last vector keeps the lanes of
/// `live`: its masked lanes load no table entry, no sample and no
/// accumulator element, and store nothing. A lane whose bin fails bin_ok
/// adds nothing, so its pixel keeps its bits.
template <class V, class SampleLoad, bool kFma, int N, bool kMasked>
void strip_impl(const asr::BlockTables& t, const float* base, Index samples,
                float* acc_re, float* acc_im, Index acc_pitch, Index l0,
                Index len_m, typename V::M live) {
  using F = typename V::F;
  using M = typename V::M;
  constexpr int W = V::kWidth;
  // Vector k is the partial one: the last, when kMasked.
  const auto partial = [](auto k) {
    return kMasked && decltype(k)::value + 1 == N;
  };
  const auto load = [&](const float* p, auto k) {
    if constexpr (partial(k)) {
      return V::load(p, live);
    } else {
      return V::load(p);
    }
  };
  F chi_r[N];
  F chi_i[N];
  F omega_r[N];
  F omega_i[N];
  F lvec[N];
  F bin_a[N];
  unrolled<N>([&](auto k) {
    const Index l = l0 + W * k;
    const auto i = static_cast<std::size_t>(l);
    chi_r[k] = load(&t.phi_re[i], k);
    chi_i[k] = load(&t.phi_im[i], k);
    omega_r[k] = load(&t.omega_re[i], k);
    omega_i[k] = load(&t.omega_im[i], k);
    lvec[k] = V::add(V::iota(), V::set1(static_cast<float>(l)));
    bin_a[k] = load(&t.bin_a[i], k);
  });
  for (Index m = 0; m < len_m; ++m) {
    const auto i_m = static_cast<std::size_t>(m);
    const F psi_r = V::set1(t.psi_re[i_m]);
    const F psi_i = V::set1(t.psi_im[i_m]);
    const F bin_b = V::set1(t.bin_b[i_m]);
    const F bin_c = V::set1(t.bin_c[i_m]);
    float* row_re = acc_re + m * acc_pitch + l0;
    float* row_im = acc_im + m * acc_pitch + l0;
    unrolled<N>([&](auto k) {
      const F bin = madd<V, kFma>(lvec[k], bin_c, V::add(bin_a[k], bin_b));
      M ok = V::bin_ok(bin, samples);
      if constexpr (partial(k)) ok = V::both(ok, live);
      const auto ibin = V::truncate(bin);
      const F frac = V::sub(bin, V::to_float(ibin));
      F re0;
      F im0;
      F re1;
      F im1;
      SampleLoad::load(base, ibin, ok, samples, re0, im0, re1, im1);
      const F s_r = madd<V, kFma>(frac, V::sub(re1, re0), re0);
      const F s_i = madd<V, kFma>(frac, V::sub(im1, im0), im0);
      // a = chi * Psi[m]
      const F a_r = msub<V, kFma>(chi_r[k], psi_r, V::mul(chi_i[k], psi_i));
      const F a_i = madd<V, kFma>(chi_r[k], psi_i, V::mul(chi_i[k], psi_r));
      // chi *= Omega[l]
      const F next_r =
          msub<V, kFma>(chi_r[k], omega_r[k], V::mul(chi_i[k], omega_i[k]));
      chi_i[k] =
          madd<V, kFma>(chi_r[k], omega_i[k], V::mul(chi_i[k], omega_r[k]));
      chi_r[k] = next_r;
      // Out += a * sample, in the lanes whose bin interpolates
      const F c_r = msub<V, kFma>(a_r, s_r, V::mul(a_i, s_i));
      const F c_i = madd<V, kFma>(a_r, s_i, V::mul(a_i, s_r));
      float* at_re = row_re + W * k;
      float* at_im = row_im + W * k;
      const F out_r = V::add(load(at_re, k), c_r, ok);
      const F out_i = V::add(load(at_im, k), c_i, ok);
      if constexpr (partial(k)) {
        V::store(at_re, out_r, live);
        V::store(at_im, out_i, live);
      } else {
        V::store(at_re, out_r);
        V::store(at_im, out_i);
      }
    });
  }
}

/// The row sweep over prebuilt tables reading AoS samples: strips of
/// V::kStrip full vectors along l, then the rest one vector per strip, the
/// last partial one masked. SampleLoad supplies the interpolation
/// operands; kFma selects fused vs split multiply-add throughout the
/// vector body (bin, interpolation, complex products).
template <class V, class SampleLoad, bool kFma>
void rows_impl(const asr::BlockTables& t, const float* base, Index samples,
               float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
               Index len_m) {
  constexpr int W = V::kWidth;
  constexpr int K = V::kStrip;
  const auto strip = [&](Index l, auto n, auto masked, typename V::M live) {
    strip_impl<V, SampleLoad, kFma, decltype(n)::value,
               decltype(masked)::value>(t, base, samples, acc_re, acc_im,
                                        acc_pitch, l, len_m, live);
  };
  using One = std::integral_constant<int, 1>;
  Index l = 0;
  for (; l + K * W <= len_l; l += K * W) {
    strip(l, std::integral_constant<int, K>{}, std::false_type{},
          typename V::M{});
  }
  for (; l + W <= len_l; l += W) {
    strip(l, One{}, std::false_type{}, typename V::M{});
  }
  if (l < len_l) strip(l, One{}, std::true_type{}, V::first_lanes(len_l - l));
}

/// AsrIsaOps::rows_aos: each KernelVariant's sample load over the one row
/// sweep.
template <class V, class Window, class Gather, class Shuffle>
void rows_aos(const asr::BlockTables& t, const CFloat* in, Index samples,
              float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
              Index len_m, KernelVariant variant) {
  const auto* base = reinterpret_cast<const float*>(in);
  switch (variant) {
    case KernelVariant::kShuffleTranspose:
      rows_impl<V, Shuffle, true>(t, base, samples, acc_re, acc_im,
                                  acc_pitch, len_l, len_m);
      return;
    case KernelVariant::kGatherNoFma:
      rows_impl<V, Gather, false>(t, base, samples, acc_re, acc_im,
                                  acc_pitch, len_l, len_m);
      return;
    case KernelVariant::kAuto:
      rows_impl<V, Window, true>(t, base, samples, acc_re, acc_im, acc_pitch,
                                 len_l, len_m);
      return;
    case KernelVariant::kGather:
      rows_impl<V, Gather, true>(t, base, samples, acc_re, acc_im, acc_pitch,
                                 len_l, len_m);
      return;
  }
}

// --- Table build: one table set per f64 lane (paper §4.4's vectorized
// pre-computation). Each lane computes its seeds with asr/seed_lanes.h's
// templates, as asr::table_seeds does in one double, then runs
// asr::expand_table_seeds's recurrences with the same operations in the
// same order, so its bytes equal the scalar build's; the lanes' tables may
// differ in length.
//
// A T, the TU's f64 lanes, is seed_lanes.h's L (D and its mask M) plus:
// kLanes; fmsub(a, b, c) = a*b - c, rounded once; load(const double*) and
// store(double*, D); bits(M), bit i set for lane i; H, the f32 vector
// to_half(D) converts to; transpose(H (&rows)[kLanes]); store(float*, H),
// a whole line of kLanes floats; and store_first(p, v, n), lanes [0,
// min(n, kLanes)) of v, n >= 1.

using Tables = asr::BlockTables;
/// An array's length in every lane: &Tables::width (L) or &Tables::height.
using Extent = Index Tables::*;
using Array = std::span<float> Tables::*;

/// One lane group's tables: *out[i] for lane i < count.
template <class T>
struct TableLanes {
  Tables* const* out;
  int count;

  /// Entries the recurrences run: the longest lane's.
  [[nodiscard]] Index longest(Extent extent) const {
    Index n = 0;
    for (int i = 0; i < count; ++i) n = std::max(n, out[i]->*extent);
    return n;
  }

  /// Entries below which every lane's line is whole: the shortest lane's
  /// when every lane is live, else 0.
  [[nodiscard]] Index whole(Extent extent) const {
    if (count < T::kLanes) return 0;
    Index n = out[0]->*extent;
    for (int i = 1; i < count; ++i) n = std::min(n, out[i]->*extent);
    return n;
  }
};

/// Stores entries [j, j + N) of `array` in every lane, N = T::kLanes:
/// rows[k] holds entry j + k of every lane and becomes lane k's N entries
/// (an N x N transpose). Below `whole` (TableLanes::whole) each lane
/// stores its line whole; past it a lane writes only its entries below
/// its extent.
template <class T>
void store_lanes(typename T::H (&rows)[T::kLanes], const TableLanes<T>& lanes,
                 Extent extent, Index whole, Array array, Index j) {
  T::transpose(rows);
  if (j + T::kLanes <= whole) {
    for (int i = 0; i < T::kLanes; ++i) {
      T::store((lanes.out[i]->*array).data() + j, rows[i]);
    }
    return;
  }
  for (int i = 0; i < lanes.count; ++i) {
    const Index left = lanes.out[i]->*extent - j;
    if (left <= 0) continue;
    T::store_first((lanes.out[i]->*array).data() + j, rows[i], left);
  }
}

/// One ramp array (asr::RampSeeds) in every lane.
template <class T>
void ramp_lanes(const TableLanes<T>& lanes, const asr::lanes::Ramp<T>& seeds,
                Extent extent, Array array) {
  auto value = seeds.value;
  auto step = seeds.step;
  const Index n = lanes.longest(extent);
  const Index whole = lanes.whole(extent);
  for (Index j = 0; j < n; j += T::kLanes) {
    typename T::H rows[T::kLanes];
    for (auto& row : rows) {
      row = T::to_half(value);
      value = T::add(value, step);
      step = T::add(step, seeds.curve);
    }
    store_lanes<T>(rows, lanes, extent, whole, array, j);
  }
}

/// a *= b as asr::expand_table_seeds pins it.
template <class T, class D>
void complex_step(D& a_re, D& a_im, D b_re, D b_im) {
  const D re = T::fmsub(a_re, b_re, T::mul(a_im, b_im));
  a_im = T::fmadd(a_re, b_im, T::mul(a_im, b_re));
  a_re = re;
}

template <class T, class D>
void renormalize(D& re, D& im) {
  const D norm = T::sqrt(T::fmadd(re, re, T::mul(im, im)));
  re = T::div(re, norm);
  im = T::div(im, norm);
}

/// One phase array pair (asr::PhaseSeeds) in every lane. A lane steps past
/// its own last entry only while a longer lane still needs entries; those
/// steps feed no stored entry.
template <class T>
void phase_lanes(const TableLanes<T>& lanes, const asr::lanes::Phase<T>& seeds,
                 Extent extent, Array array_re, Array array_im) {
  auto u_re = seeds.u_re;
  auto u_im = seeds.u_im;
  auto v_re = seeds.v_re;
  auto v_im = seeds.v_im;
  const Index n = lanes.longest(extent);
  const Index whole = lanes.whole(extent);
  for (Index j = 0; j < n; j += T::kLanes) {
    typename T::H rows_re[T::kLanes];
    typename T::H rows_im[T::kLanes];
    for (int k = 0; k < T::kLanes; ++k) {
      rows_re[k] = T::to_half(u_re);
      rows_im[k] = T::to_half(u_im);
      const Index e = j + k;
      if (e + 1 >= n) continue;
      complex_step<T>(u_re, u_im, v_re, v_im);
      complex_step<T>(v_re, v_im, seeds.w_re, seeds.w_im);
      if ((e & asr::kRenormMask) == asr::kRenormMask) {
        renormalize<T>(u_re, u_im);
        renormalize<T>(v_re, v_im);
      }
    }
    store_lanes<T>(rows_re, lanes, extent, whole, array_re, j);
    store_lanes<T>(rows_im, lanes, extent, whole, array_im, j);
  }
}

/// AsrIsaOps::build_tables: group.count <= T::kLanes table sets, one per
/// lane. Under y_inner a lane's l and m axes are the image's y and x, so
/// its u = centre - radar and its centred offsets swap, as
/// asr_sweep.cpp's block_range_quadratic swaps them for the scalar build.
template <class T>
int build_tables(const TableGroup& group) {
  using D = typename T::D;
  const auto x_inner = T::gt(T::load(group.x_inner), T::set1(0.0));
  const D ux = T::sub(T::set1(group.centre_x), T::load(group.radar_x));
  const D uy = T::sub(T::set1(group.centre_y), T::load(group.radar_y));
  const D uz = T::sub(T::set1(group.centre_z), T::load(group.radar_z));
  const D spacing = T::set1(group.spacing);
  const asr::lanes::Quadratic<T> q = asr::lanes::range_quadratic<T>(
      T::select(x_inner, ux, uy), T::select(x_inner, uy, ux), uz, spacing,
      spacing);
  const unsigned live = (1U << group.count) - 1U;
  const unsigned refused = ~T::bits(T::gt(q.f0, T::set1(0.0))) & live;
  if (refused != 0) return std::countr_zero(refused);
  const D w0 = T::set1(-0.5 * static_cast<double>(group.width - 1));
  const D h0 = T::set1(-0.5 * static_cast<double>(group.height - 1));
  const asr::lanes::Seeds<T> seeds = asr::lanes::table_seeds<T>(
      q, T::load(group.start_range), T::load(group.bin_spacing),
      T::load(group.two_pi_k), T::select(x_inner, w0, h0),
      T::select(x_inner, h0, w0));
  const TableLanes<T> lanes{group.out, group.count};
  ramp_lanes(lanes, seeds.bin_a, &Tables::width, &Tables::bin_a);
  phase_lanes(lanes, seeds.phi, &Tables::width, &Tables::phi_re,
              &Tables::phi_im);
  phase_lanes(lanes, seeds.omega, &Tables::width, &Tables::omega_re,
              &Tables::omega_im);
  ramp_lanes(lanes, seeds.bin_b, &Tables::height, &Tables::bin_b);
  ramp_lanes(lanes, seeds.bin_c, &Tables::height, &Tables::bin_c);
  phase_lanes(lanes, seeds.psi, &Tables::height, &Tables::psi_re,
              &Tables::psi_im);
  return -1;
}

/// AsrIsaOps::unit_phases: T::kLanes phases at a time, the last group
/// padded with zeros.
template <class T>
void unit_phases(const double* phase, double* re, double* im, Index n) {
  for (Index i = 0; i < n; i += T::kLanes) {
    const Index count = std::min<Index>(T::kLanes, n - i);
    double in[T::kLanes] = {};
    double out_re[T::kLanes];
    double out_im[T::kLanes];
    std::copy_n(phase + i, count, in);
    typename T::D lane_re;
    typename T::D lane_im;
    asr::lanes::unit_phase<T>(T::load(in), lane_re, lane_im);
    T::store(out_re, lane_re);
    T::store(out_im, lane_im);
    std::copy_n(out_re, count, re + i);
    std::copy_n(out_im, count, im + i);
  }
}

}  // namespace sarbp::bp::detail
