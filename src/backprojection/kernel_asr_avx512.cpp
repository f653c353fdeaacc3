// AVX-512 ASR row kernels and table build (paper §4.4, the Phi-style
// 16-lane path).
// This TU is compiled with -march=x86-64-v4 regardless of the build's
// baseline -march and is only ever entered through the dispatcher after a
// runtime cpuid check (kernel_simd_ops.h). Everything lives in an
// anonymous namespace so no v4-compiled code can leak to other TUs through
// vague linkage.
//
// rows_aos reads samples straight from the AoS pulse buffer, where In[bin]
// and In[bin+1] are four adjacent floats; its inner loop is a selectable
// window / gather / shuffle-transpose / no-FMA variant. build_tables
// expands 8 tables at once, one per f64 lane.
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/types.h"

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <span>

// GCC's -Wmaybe-uninitialized fires inside the AVX-512 intrinsic headers
// when _mm512_cvttps_epi32 is inlined here: the intrinsics deliberately
// start from _mm512_undefined_epi32 (GCC bug 105593). Suppress just that
// diagnostic for this translation unit so -Werror builds stay clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace sarbp::bp::detail {
namespace {

/// Fused vs split multiply-add: the only difference between the default
/// and the kGatherNoFma rounding-ablation variant.
template <bool kFma>
inline __m512 madd(__m512 a, __m512 b, __m512 c) {
  if constexpr (kFma) {
    return _mm512_fmadd_ps(a, b, c);
  } else {
    return _mm512_add_ps(_mm512_mul_ps(a, b), c);
  }
}

template <bool kFma>
inline __m512 msub(__m512 a, __m512 b, __m512 c) {
  if constexpr (kFma) {
    return _mm512_fmsub_ps(a, b, c);
  } else {
    return _mm512_sub_ps(_mm512_mul_ps(a, b), c);
  }
}

/// Sample-load policy: 4 hardware gathers over the AoS buffer. Scale 8
/// strides two floats per index, so base+0/+1/+2/+3 pick re0/im0/re1/im1
/// of the complex pair at In[bin]. Masked lanes never touch memory and
/// come back as exact zeros.
struct GatherSamples {
  static void load(const float* base, __m512i ibin, __mmask16 ok,
                   Index /*samples*/, __m512& re0, __m512& im0, __m512& re1,
                   __m512& im1) {
    const __m512 zero = _mm512_setzero_ps();
    re0 = _mm512_mask_i32gather_ps(zero, ok, ibin, base, 8);
    im0 = _mm512_mask_i32gather_ps(zero, ok, ibin, base + 1, 8);
    re1 = _mm512_mask_i32gather_ps(zero, ok, ibin, base + 2, 8);
    im1 = _mm512_mask_i32gather_ps(zero, ok, ibin, base + 3, 8);
  }
};

/// Sample-load policy (kAuto): one 16-float window load plus four
/// in-register permutes when the vector's bins fit the window, the
/// gathers otherwise. The wavefront loop order (§4.3) keeps neighbouring
/// pixels on the same or adjacent bins, so most vectors fit. A vector
/// fits when every lane is in range and every bin lies in [lo, lo + 6],
/// lo the smaller of the first and last lanes' bins (one unsigned compare
/// of the offsets, whatever the bins' order): In[lo .. lo + 8) then holds
/// every lane's re0, im0, re1, im1. `lo + 8 <= samples` keeps the load in
/// bounds. The lanes get the gathers' values, so the image is
/// bit-identical to GatherSamples.
struct WindowSamples {
  static void load(const float* base, __m512i ibin, __mmask16 ok,
                   Index samples, __m512& re0, __m512& im0, __m512& re1,
                   __m512& im1) {
    const __m512i lo = _mm512_min_epi32(
        _mm512_broadcastd_epi32(_mm512_castsi512_si128(ibin)),
        _mm512_permutexvar_epi32(_mm512_set1_epi32(15), ibin));
    const __m512i off = _mm512_sub_epi32(ibin, lo);
    const __mmask16 fits =
        _mm512_mask_cmple_epu32_mask(ok, off, _mm512_set1_epi32(6));
    const Index first = _mm_cvtsi128_si32(_mm512_castsi512_si128(lo));
    if (fits == 0xFFFF && first + 8 <= samples) {
      const __m512 window =
          _mm512_loadu_ps(base + 2 * static_cast<std::size_t>(first));
      const __m512i one = _mm512_set1_epi32(1);
      __m512i at = _mm512_add_epi32(off, off);  // re0 of lane i: 2 * off
      re0 = _mm512_permutexvar_ps(at, window);
      at = _mm512_add_epi32(at, one);
      im0 = _mm512_permutexvar_ps(at, window);
      at = _mm512_add_epi32(at, one);
      re1 = _mm512_permutexvar_ps(at, window);
      at = _mm512_add_epi32(at, one);
      im1 = _mm512_permutexvar_ps(at, window);
      return;
    }
    GatherSamples::load(base, ibin, ok, samples, re0, im0, re1, im1);
  }
};

/// Sample-load policy: one 16-byte contiguous load per lane — the four
/// floats re0,im0,re1,im1 are adjacent in AoS — then a 16x4 in-register
/// transpose. Masked lanes load a clamped in-bounds dummy and are zeroed
/// afterwards, so the numeric result is bit-identical to GatherSamples.
struct ShuffleSamples {
  static void load(const float* base, __m512i ibin, __mmask16 ok,
                   Index samples, __m512& re0, __m512& im0, __m512& re1,
                   __m512& im1) {
    const __m512i ic = _mm512_min_epi32(
        _mm512_max_epi32(ibin, _mm512_setzero_si512()),
        _mm512_set1_epi32(static_cast<int>(samples) - 2));
    alignas(64) int idx[16];
    _mm512_store_si512(idx, ic);
    __m128 v[16];
    for (int lane = 0; lane < 16; ++lane) {
      v[lane] = _mm_loadu_ps(base + 2 * static_cast<std::size_t>(
                                      static_cast<unsigned>(idx[lane])));
    }
    const auto pack4 = [](const __m128* q) {
      __m512 z = _mm512_castps128_ps512(q[0]);
      z = _mm512_insertf32x4(z, q[1], 1);
      z = _mm512_insertf32x4(z, q[2], 2);
      z = _mm512_insertf32x4(z, q[3], 3);
      return z;
    };
    const __m512 z0 = pack4(v);       // lanes 0..3, 4 floats each
    const __m512 z1 = pack4(v + 4);   // lanes 4..7
    const __m512 z2 = pack4(v + 8);   // lanes 8..11
    const __m512 z3 = pack4(v + 12);  // lanes 12..15
    // Component c of every lane: positions {c, 4+c, 8+c, 12+c} of each
    // zmm. permutex2var fills lanes 0..7 from (z0, z1) / (z2, z3); the
    // insert stitches the halves.
    const auto comp = [&](int c) {
      const __m512i sel = _mm512_setr_epi32(c, 4 + c, 8 + c, 12 + c, 16 + c,
                                            20 + c, 24 + c, 28 + c, 0, 0, 0,
                                            0, 0, 0, 0, 0);
      const __m512 lo = _mm512_permutex2var_ps(z0, sel, z1);
      const __m512 hi = _mm512_permutex2var_ps(z2, sel, z3);
      return _mm512_insertf32x8(lo, _mm512_castps512_ps256(hi), 1);
    };
    re0 = _mm512_maskz_mov_ps(ok, comp(0));
    im0 = _mm512_maskz_mov_ps(ok, comp(1));
    re1 = _mm512_maskz_mov_ps(ok, comp(2));
    im1 = _mm512_maskz_mov_ps(ok, comp(3));
  }
};

/// Gamma seeds of one 16-row group (paper §4.4): lane k of row j's seed
/// is Gamma[m + j]^k, and row j steps by Gamma[m + j]^16. seed_re/seed_im
/// hold power k of the group's rows at [16 * k, 16 * k + 16), so row j's
/// seed is the stride-16 column j, which one gather hands it.
struct GammaSeeds {
  alignas(64) float seed_re[16 * 16];
  alignas(64) float seed_im[16 * 16];
  alignas(64) float step_re[16];
  alignas(64) float step_im[16];

  /// Seeds rows [m, m + 16) of `t`: 16 steps from 1, one row per lane.
  /// Lanes past len_m step by 0 and feed no row. Every step is
  /// re = fmsub(a.re, b.re, a.im * b.im), im = fmadd(a.re, b.im,
  /// a.im * b.re), in every variant: the images' bytes depend on this
  /// rounding (KernelVariantTest.GammaSeedsKeepTheirRounding).
  GammaSeeds(const asr::BlockTables& t, Index m, Index len_m) {
    const Index rows = len_m - m;
    const auto live =
        static_cast<__mmask16>(rows >= 16 ? 0xFFFF : (1U << rows) - 1U);
    const __m512 b_re =
        _mm512_maskz_loadu_ps(live, &t.gam_re[static_cast<std::size_t>(m)]);
    const __m512 b_im =
        _mm512_maskz_loadu_ps(live, &t.gam_im[static_cast<std::size_t>(m)]);
    __m512 a_re = _mm512_set1_ps(1.0f);
    __m512 a_im = _mm512_setzero_ps();
    for (int k = 0; k < 16; ++k) {
      _mm512_store_ps(seed_re + 16 * k, a_re);
      _mm512_store_ps(seed_im + 16 * k, a_im);
      const __m512 re =
          _mm512_fmsub_ps(a_re, b_re, _mm512_mul_ps(a_im, b_im));
      a_im = _mm512_fmadd_ps(a_re, b_im, _mm512_mul_ps(a_im, b_re));
      a_re = re;
    }
    _mm512_store_ps(step_re, a_re);
    _mm512_store_ps(step_im, a_im);
  }
};

/// The shared row sweep. SampleLoad supplies the interpolation operands;
/// kFma selects fused vs split multiply-add everywhere in the vector body
/// (bin recurrence, interpolation, complex products). A row's last partial
/// vector is one more step under a lane mask: masked lanes load no table
/// entry, no sample and no accumulator element, and store nothing.
template <class SampleLoad, bool kFma>
void rows_impl(const asr::BlockTables& t, const float* base, Index samples,
               float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
               Index len_m) {
  const __m512 iota =
      _mm512_set_ps(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i max_bin = _mm512_set1_epi32(static_cast<int>(samples) - 1);
  const __m512i column = _mm512_set_epi32(240, 224, 208, 192, 176, 160, 144,
                                          128, 112, 96, 80, 64, 48, 32, 16,
                                          0);
  for (Index group = 0; group < len_m; group += 16) {
    const GammaSeeds seeds(t, group, len_m);
    const Index rows = std::min<Index>(len_m - group, 16);
    for (Index j = 0; j < rows; ++j) {
      const Index m = group + j;
      const float bin_b = t.bin_b[static_cast<std::size_t>(m)];
      const float bin_c = t.bin_c[static_cast<std::size_t>(m)];
      const float psi_r = t.psi_re[static_cast<std::size_t>(m)];
      const float psi_i = t.psi_im[static_cast<std::size_t>(m)];
      __m512 g_r = _mm512_i32gather_ps(column, seeds.seed_re + j, 4);
      __m512 g_i = _mm512_i32gather_ps(column, seeds.seed_im + j, 4);
      const __m512 step_r = _mm512_set1_ps(seeds.step_re[j]);
      const __m512 step_i = _mm512_set1_ps(seeds.step_im[j]);
      const __m512 psi_rv = _mm512_set1_ps(psi_r);
      const __m512 psi_iv = _mm512_set1_ps(psi_i);
      const __m512 bin_bv = _mm512_set1_ps(bin_b);
      const __m512 bin_cv = _mm512_set1_ps(bin_c);
      float* row_re = acc_re + m * acc_pitch;
      float* row_im = acc_im + m * acc_pitch;
      // Pixels [l, l + 16) of the row, `live` masking those past len_l.
      const auto step = [&](Index l, __mmask16 live) {
        const __m512 lvec =
            _mm512_add_ps(iota, _mm512_set1_ps(static_cast<float>(l)));
        const __m512 bin_av = _mm512_maskz_loadu_ps(
            live, &t.bin_a[static_cast<std::size_t>(l)]);
        const __m512 bin =
            madd<kFma>(lvec, bin_cv, _mm512_add_ps(bin_av, bin_bv));
        const __m512i ibin = _mm512_cvttps_epi32(bin);
        const __mmask16 nonneg =
            _mm512_cmp_ps_mask(bin, _mm512_setzero_ps(), _CMP_GE_OQ);
        const __mmask16 inrange = _mm512_cmplt_epi32_mask(ibin, max_bin);
        // cvttps saturates float bins beyond INT_MAX to INT_MIN; the explicit
        // ibin >= 0 check keeps such lanes out of the sample loads.
        const __mmask16 iok =
            _mm512_cmpgt_epi32_mask(ibin, _mm512_set1_epi32(-1));
        const __mmask16 ok = live & nonneg & inrange & iok;
        const __m512 frac = _mm512_sub_ps(bin, _mm512_cvtepi32_ps(ibin));
        __m512 re0;
        __m512 im0;
        __m512 re1;
        __m512 im1;
        SampleLoad::load(base, ibin, ok, samples, re0, im0, re1, im1);
        const __m512 s_r = madd<kFma>(frac, _mm512_sub_ps(re1, re0), re0);
        const __m512 s_i = madd<kFma>(frac, _mm512_sub_ps(im1, im0), im0);
        const __m512 phi_r = _mm512_maskz_loadu_ps(
            live, &t.phi_re[static_cast<std::size_t>(l)]);
        const __m512 phi_i = _mm512_maskz_loadu_ps(
            live, &t.phi_im[static_cast<std::size_t>(l)]);
        // arg = Phi * Psi * gamma (two complex multiplies)
        const __m512 t_r = msub<kFma>(phi_r, g_r, _mm512_mul_ps(phi_i, g_i));
        const __m512 t_i = madd<kFma>(phi_r, g_i, _mm512_mul_ps(phi_i, g_r));
        const __m512 a_r = msub<kFma>(t_r, psi_rv, _mm512_mul_ps(t_i, psi_iv));
        const __m512 a_i = madd<kFma>(t_r, psi_iv, _mm512_mul_ps(t_i, psi_rv));
        // gamma *= Gamma^16
        const __m512 ng_r = msub<kFma>(g_r, step_r, _mm512_mul_ps(g_i, step_i));
        g_i = madd<kFma>(g_r, step_i, _mm512_mul_ps(g_i, step_r));
        g_r = ng_r;
        // Out += arg * sample
        const __m512 c_r = msub<kFma>(a_r, s_r, _mm512_mul_ps(a_i, s_i));
        const __m512 c_i = madd<kFma>(a_r, s_i, _mm512_mul_ps(a_i, s_r));
        _mm512_mask_storeu_ps(
            row_re + l, live,
            _mm512_add_ps(_mm512_maskz_loadu_ps(live, row_re + l), c_r));
        _mm512_mask_storeu_ps(
            row_im + l, live,
            _mm512_add_ps(_mm512_maskz_loadu_ps(live, row_im + l), c_i));
      };
      Index l = 0;
      for (; l + 16 <= len_l; l += 16) step(l, 0xFFFF);
      if (l < len_l) {
        step(l, static_cast<__mmask16>((1U << (len_l - l)) - 1U));
      }
    }
  }
}

void rows_aos_avx512(const asr::BlockTables& t, const CFloat* in,
                     Index samples, float* acc_re, float* acc_im,
                     Index acc_pitch, Index len_l, Index len_m,
                     KernelVariant variant) {
  const auto* base = reinterpret_cast<const float*>(in);
  switch (variant) {
    case KernelVariant::kShuffleTranspose:
      rows_impl<ShuffleSamples, true>(t, base, samples, acc_re, acc_im,
                                      acc_pitch, len_l, len_m);
      return;
    case KernelVariant::kGatherNoFma:
      rows_impl<GatherSamples, false>(t, base, samples, acc_re, acc_im,
                                      acc_pitch, len_l, len_m);
      return;
    case KernelVariant::kAuto:
      rows_impl<WindowSamples, true>(t, base, samples, acc_re, acc_im,
                                     acc_pitch, len_l, len_m);
      return;
    case KernelVariant::kGather:
      rows_impl<GatherSamples, true>(t, base, samples, acc_re, acc_im,
                                     acc_pitch, len_l, len_m);
      return;
  }
}

// --- Table build: one table per f64 lane (paper §4.4's vectorized
// pre-computation). Each lane runs asr::expand_table_seeds's recurrences
// with the same operations in the same order, so its bytes equal the
// scalar build's; the lanes' tables may differ in length.

constexpr int kTableLanes = 8;

using Seeds = asr::TableSeeds;
using Tables = asr::BlockTables;
/// An array's length in every lane: &Seeds::width (L) or &Seeds::height.
using Extent = Index Seeds::*;
using Array = std::span<float> Tables::*;

/// One lane group: seeds[i] expands into *out[i], i < count.
struct TableLanes {
  const Seeds* seeds;
  Tables* const* out;
  int count;

  /// Lane i's seeds[i].*field.*part; idle lanes repeat lane 0.
  template <class Part>
  [[nodiscard]] __m512d load(Part Seeds::*field, double Part::*part) const {
    alignas(64) double v[kTableLanes];
    for (int i = 0; i < kTableLanes; ++i) {
      v[i] = seeds[i < count ? i : 0].*field.*part;
    }
    return _mm512_load_pd(v);
  }

  [[nodiscard]] Index longest(Extent extent) const {
    Index n = 0;
    for (int i = 0; i < count; ++i) {
      if (seeds[i].*extent > n) n = seeds[i].*extent;
    }
    return n;
  }
};

/// Stores entries [j, j + 8) of `array` in every lane: rows[k] holds entry
/// j + k of lanes 0..7 and becomes lane k's 8 entries (an 8x8 transpose);
/// a lane writes only its entries below its extent.
void store_lanes(__m256 (&rows)[8], const TableLanes& lanes, Extent extent,
                 Array array, Index j) {
  const __m256 t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
  const __m256 t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
  const __m256 t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
  const __m256 t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
  const __m256 t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
  const __m256 t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
  const __m256 t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
  const __m256 t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  rows[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  rows[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  rows[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  rows[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  rows[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  rows[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  rows[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  rows[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
  for (int i = 0; i < lanes.count; ++i) {
    const Index left = lanes.seeds[i].*extent - j;
    if (left <= 0) continue;
    const auto live =
        static_cast<__mmask8>(left >= 8 ? 0xFF : (1U << left) - 1U);
    _mm256_mask_storeu_ps((lanes.out[i]->*array).data() + j, live, rows[i]);
  }
}

/// One ramp array (asr::RampSeeds) in every lane.
void ramp_lanes(const TableLanes& lanes, asr::RampSeeds Seeds::*field,
                Extent extent, Array array) {
  __m512d value = lanes.load(field, &asr::RampSeeds::value);
  __m512d step = lanes.load(field, &asr::RampSeeds::step);
  const __m512d curve = lanes.load(field, &asr::RampSeeds::curve);
  const Index n = lanes.longest(extent);
  for (Index j = 0; j < n; j += 8) {
    __m256 rows[8];
    for (__m256& row : rows) {
      row = _mm512_cvtpd_ps(value);
      value = _mm512_add_pd(value, step);
      step = _mm512_add_pd(step, curve);
    }
    store_lanes(rows, lanes, extent, array, j);
  }
}

/// a *= b as asr::expand_table_seeds pins it.
inline void complex_step(__m512d& a_re, __m512d& a_im, __m512d b_re,
                         __m512d b_im) {
  const __m512d re = _mm512_fmsub_pd(a_re, b_re, _mm512_mul_pd(a_im, b_im));
  a_im = _mm512_fmadd_pd(a_re, b_im, _mm512_mul_pd(a_im, b_re));
  a_re = re;
}

inline void renormalize(__m512d& re, __m512d& im) {
  const __m512d norm =
      _mm512_sqrt_pd(_mm512_fmadd_pd(re, re, _mm512_mul_pd(im, im)));
  re = _mm512_div_pd(re, norm);
  im = _mm512_div_pd(im, norm);
}

/// One phase array pair (asr::PhaseSeeds) in every lane. A lane steps past
/// its own last entry only while a longer lane still needs entries; those
/// steps feed no stored entry.
void phase_lanes(const TableLanes& lanes, asr::PhaseSeeds Seeds::*field,
                 Extent extent, Array array_re, Array array_im) {
  __m512d u_re = lanes.load(field, &asr::PhaseSeeds::u_re);
  __m512d u_im = lanes.load(field, &asr::PhaseSeeds::u_im);
  __m512d v_re = lanes.load(field, &asr::PhaseSeeds::v_re);
  __m512d v_im = lanes.load(field, &asr::PhaseSeeds::v_im);
  const __m512d w_re = lanes.load(field, &asr::PhaseSeeds::w_re);
  const __m512d w_im = lanes.load(field, &asr::PhaseSeeds::w_im);
  const Index n = lanes.longest(extent);
  for (Index j = 0; j < n; j += 8) {
    __m256 rows_re[8];
    __m256 rows_im[8];
    for (int k = 0; k < 8; ++k) {
      rows_re[k] = _mm512_cvtpd_ps(u_re);
      rows_im[k] = _mm512_cvtpd_ps(u_im);
      const Index e = j + k;
      if (e + 1 >= n) continue;
      complex_step(u_re, u_im, v_re, v_im);
      complex_step(v_re, v_im, w_re, w_im);
      if ((e & asr::kRenormMask) == asr::kRenormMask) {
        renormalize(u_re, u_im);
        renormalize(v_re, v_im);
      }
    }
    store_lanes(rows_re, lanes, extent, array_re, j);
    store_lanes(rows_im, lanes, extent, array_im, j);
  }
}

void build_tables_avx512(const Seeds* seeds, Tables* const* out, int count) {
  const TableLanes lanes{seeds, out, count};
  ramp_lanes(lanes, &Seeds::bin_a, &Seeds::width, &Tables::bin_a);
  phase_lanes(lanes, &Seeds::phi, &Seeds::width, &Tables::phi_re,
              &Tables::phi_im);
  ramp_lanes(lanes, &Seeds::bin_b, &Seeds::height, &Tables::bin_b);
  ramp_lanes(lanes, &Seeds::bin_c, &Seeds::height, &Tables::bin_c);
  phase_lanes(lanes, &Seeds::psi, &Seeds::height, &Tables::psi_re,
              &Tables::psi_im);
  phase_lanes(lanes, &Seeds::gam, &Seeds::height, &Tables::gam_re,
              &Tables::gam_im);
}

}  // namespace

const AsrIsaOps& asr_isa_ops_avx512() {
  static const AsrIsaOps ops{16, kTableLanes, "avx512", &rows_aos_avx512,
                              &build_tables_avx512};
  return ops;
}

}  // namespace sarbp::bp::detail
