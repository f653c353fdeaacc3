// The ASR row kernels and the lane-per-table build of both vector ISAs
// (paper §4.4), written once as templates over a vector-traits type V. The
// paper runs one vectorized inner loop at two widths; kernel_asr_avx2.cpp
// (8 f32 / 4 f64 lanes) and kernel_asr_avx512.cpp (16 / 8) each supply a V,
// their sample loads and their AsrIsaOps table, and instantiate what is
// here: the row sweep (rows_impl, lanes along l) and the table build. The
// row sweep steps each pixel's column chain in the portable sweep's pinned
// forms at either width, so both ISAs give its bytes (asr_sweep.cpp).
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
//    both(a, b): the lanes live in both masks;
//  - D, kTableLanes: the f64 vector and its lanes; load(const double*),
//    add, mul, fmadd, fmsub, div, sqrt on D; H, the f32 vector to_half(D)
//    converts to;
//  - transpose(H (&rows)[kTableLanes]) and store_first(p, v, n), which
//    stores lanes [0, min(n, kTableLanes)) of v, n >= 1.
//
// Every V has internal linkage, so every instantiation does too: no code
// compiled for one -march can be COMDAT-merged into the other TU (DESIGN.md
// §12, "Per-ISA TUs and ODR"). So this header holds templates only, and no
// intrinsic or vector type (the `isa-intrinsics` lint rule);
// tools/check_isa_linkage.py checks the objects' symbols.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

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

// --- Table build: one table per f64 lane (paper §4.4's vectorized
// pre-computation). Each lane runs asr::expand_table_seeds's recurrences
// with the same operations in the same order, so its bytes equal the
// scalar build's; the lanes' tables may differ in length.

using Seeds = asr::TableSeeds;
using Tables = asr::BlockTables;
/// An array's length in every lane: &Seeds::width (L) or &Seeds::height.
using Extent = Index Seeds::*;
using Array = std::span<float> Tables::*;

/// One lane group: seeds[i] expands into *out[i], i < count.
template <class V>
struct TableLanes {
  const Seeds* seeds;
  Tables* const* out;
  int count;

  /// Lane i's seeds[i].*field.*part; idle lanes repeat lane 0.
  template <class Part>
  [[nodiscard]] typename V::D load(Part Seeds::*field,
                                   double Part::*part) const {
    double v[V::kTableLanes];
    for (int i = 0; i < V::kTableLanes; ++i) {
      v[i] = seeds[i < count ? i : 0].*field.*part;
    }
    return V::load(v);
  }

  [[nodiscard]] Index longest(Extent extent) const {
    Index n = 0;
    for (int i = 0; i < count; ++i) {
      if (seeds[i].*extent > n) n = seeds[i].*extent;
    }
    return n;
  }
};

/// Stores entries [j, j + N) of `array` in every lane, N = V::kTableLanes:
/// rows[k] holds entry j + k of every lane and becomes lane k's N entries
/// (an N x N transpose); a lane writes only its entries below its extent.
template <class V>
void store_lanes(typename V::H (&rows)[V::kTableLanes],
                 const TableLanes<V>& lanes, Extent extent, Array array,
                 Index j) {
  V::transpose(rows);
  for (int i = 0; i < lanes.count; ++i) {
    const Index left = lanes.seeds[i].*extent - j;
    if (left <= 0) continue;
    V::store_first((lanes.out[i]->*array).data() + j, rows[i], left);
  }
}

/// One ramp array (asr::RampSeeds) in every lane.
template <class V>
void ramp_lanes(const TableLanes<V>& lanes, asr::RampSeeds Seeds::*field,
                Extent extent, Array array) {
  auto value = lanes.load(field, &asr::RampSeeds::value);
  auto step = lanes.load(field, &asr::RampSeeds::step);
  const auto curve = lanes.load(field, &asr::RampSeeds::curve);
  const Index n = lanes.longest(extent);
  for (Index j = 0; j < n; j += V::kTableLanes) {
    typename V::H rows[V::kTableLanes];
    for (auto& row : rows) {
      row = V::to_half(value);
      value = V::add(value, step);
      step = V::add(step, curve);
    }
    store_lanes<V>(rows, lanes, extent, array, j);
  }
}

/// a *= b as asr::expand_table_seeds pins it.
template <class V, class D>
void complex_step(D& a_re, D& a_im, D b_re, D b_im) {
  const D re = V::fmsub(a_re, b_re, V::mul(a_im, b_im));
  a_im = V::fmadd(a_re, b_im, V::mul(a_im, b_re));
  a_re = re;
}

template <class V, class D>
void renormalize(D& re, D& im) {
  const D norm = V::sqrt(V::fmadd(re, re, V::mul(im, im)));
  re = V::div(re, norm);
  im = V::div(im, norm);
}

/// One phase array pair (asr::PhaseSeeds) in every lane. A lane steps past
/// its own last entry only while a longer lane still needs entries; those
/// steps feed no stored entry.
template <class V>
void phase_lanes(const TableLanes<V>& lanes, asr::PhaseSeeds Seeds::*field,
                 Extent extent, Array array_re, Array array_im) {
  auto u_re = lanes.load(field, &asr::PhaseSeeds::u_re);
  auto u_im = lanes.load(field, &asr::PhaseSeeds::u_im);
  auto v_re = lanes.load(field, &asr::PhaseSeeds::v_re);
  auto v_im = lanes.load(field, &asr::PhaseSeeds::v_im);
  const auto w_re = lanes.load(field, &asr::PhaseSeeds::w_re);
  const auto w_im = lanes.load(field, &asr::PhaseSeeds::w_im);
  const Index n = lanes.longest(extent);
  for (Index j = 0; j < n; j += V::kTableLanes) {
    typename V::H rows_re[V::kTableLanes];
    typename V::H rows_im[V::kTableLanes];
    for (int k = 0; k < V::kTableLanes; ++k) {
      rows_re[k] = V::to_half(u_re);
      rows_im[k] = V::to_half(u_im);
      const Index e = j + k;
      if (e + 1 >= n) continue;
      complex_step<V>(u_re, u_im, v_re, v_im);
      complex_step<V>(v_re, v_im, w_re, w_im);
      if ((e & asr::kRenormMask) == asr::kRenormMask) {
        renormalize<V>(u_re, u_im);
        renormalize<V>(v_re, v_im);
      }
    }
    store_lanes<V>(rows_re, lanes, extent, array_re, j);
    store_lanes<V>(rows_im, lanes, extent, array_im, j);
  }
}

/// AsrIsaOps::build_tables: count <= V::kTableLanes tables, one per lane.
template <class V>
void build_tables(const Seeds* seeds, Tables* const* out, int count) {
  const TableLanes<V> lanes{seeds, out, count};
  ramp_lanes(lanes, &Seeds::bin_a, &Seeds::width, &Tables::bin_a);
  phase_lanes(lanes, &Seeds::phi, &Seeds::width, &Tables::phi_re,
              &Tables::phi_im);
  phase_lanes(lanes, &Seeds::omega, &Seeds::width, &Tables::omega_re,
              &Tables::omega_im);
  ramp_lanes(lanes, &Seeds::bin_b, &Seeds::height, &Tables::bin_b);
  ramp_lanes(lanes, &Seeds::bin_c, &Seeds::height, &Tables::bin_c);
  phase_lanes(lanes, &Seeds::psi, &Seeds::height, &Tables::psi_re,
              &Tables::psi_im);
}

}  // namespace sarbp::bp::detail
