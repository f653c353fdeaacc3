// AVX2 ASR row kernels and table build (paper §4.4, the Xeon-style 8-lane
// path; the build expands 4 tables at once, one per f64 lane). This TU
// is compiled with -march=x86-64-v3 regardless of the build's baseline
// -march — on an AVX-512 build host it still emits genuine 8-lane AVX2
// code, which is what lets the parity tests force AVX2-on-an-AVX-512-host
// and the dispatcher serve hosts without AVX-512 from the same binary.
// Entered only through a runtime cpuid check (kernel_simd_ops.h); all
// code is in an anonymous namespace so none of it can leak to other TUs
// through vague linkage.
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/types.h"

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

namespace sarbp::bp::detail {
namespace {

template <bool kFma>
inline __m256 madd(__m256 a, __m256 b, __m256 c) {
  if constexpr (kFma) {
    return _mm256_fmadd_ps(a, b, c);
  } else {
    return _mm256_add_ps(_mm256_mul_ps(a, b), c);
  }
}

template <bool kFma>
inline __m256 msub(__m256 a, __m256 b, __m256 c) {
  if constexpr (kFma) {
    return _mm256_fmsub_ps(a, b, c);
  } else {
    return _mm256_sub_ps(_mm256_mul_ps(a, b), c);
  }
}

/// 4 hardware gathers over the AoS buffer; scale 8 strides two floats per
/// index so base+0/+1/+2/+3 pick re0/im0/re1/im1 of In[bin]. `ok` is a
/// full-lane float mask; masked lanes never touch memory.
struct GatherSamples {
  static void load(const float* base, __m256i ibin, __m256 ok,
                   Index /*samples*/, __m256& re0, __m256& im0, __m256& re1,
                   __m256& im1) {
    const __m256 zero = _mm256_setzero_ps();
    re0 = _mm256_mask_i32gather_ps(zero, base, ibin, ok, 8);
    im0 = _mm256_mask_i32gather_ps(zero, base + 1, ibin, ok, 8);
    re1 = _mm256_mask_i32gather_ps(zero, base + 2, ibin, ok, 8);
    im1 = _mm256_mask_i32gather_ps(zero, base + 3, ibin, ok, 8);
  }
};

/// kAuto: one 8-float window load plus four in-register permutes when the
/// vector's bins fit the window, the gathers otherwise. A vector fits when
/// every lane is in range and every bin lies in [lo, lo + 2], lo the
/// smaller of the first and last lanes' bins (an unsigned compare of the
/// offsets, whatever the bins' order): In[lo .. lo + 4) then holds every
/// lane's re0, im0, re1, im1. `lo + 4 <= samples` keeps the load in
/// bounds. Same values as the gathers: bit-identical to GatherSamples.
struct WindowSamples {
  static void load(const float* base, __m256i ibin, __m256 ok, Index samples,
                   __m256& re0, __m256& im0, __m256& re1, __m256& im1) {
    const __m256i lo = _mm256_min_epi32(
        _mm256_broadcastd_epi32(_mm256_castsi256_si128(ibin)),
        _mm256_permutevar8x32_epi32(ibin, _mm256_set1_epi32(7)));
    const __m256i off = _mm256_sub_epi32(ibin, lo);
    // off <= 2 as unsigned: min(off, 2) == off.
    const __m256i span_ok =
        _mm256_cmpeq_epi32(_mm256_min_epu32(off, _mm256_set1_epi32(2)), off);
    const int fits =
        _mm256_movemask_ps(_mm256_and_ps(ok, _mm256_castsi256_ps(span_ok)));
    const Index first = _mm_cvtsi128_si32(_mm256_castsi256_si128(lo));
    if (fits == 0xFF && first + 4 <= samples) {
      const __m256 window =
          _mm256_loadu_ps(base + 2 * static_cast<std::size_t>(first));
      const __m256i one = _mm256_set1_epi32(1);
      __m256i at = _mm256_add_epi32(off, off);  // re0 of lane i: 2 * off
      re0 = _mm256_permutevar8x32_ps(window, at);
      at = _mm256_add_epi32(at, one);
      im0 = _mm256_permutevar8x32_ps(window, at);
      at = _mm256_add_epi32(at, one);
      re1 = _mm256_permutevar8x32_ps(window, at);
      at = _mm256_add_epi32(at, one);
      im1 = _mm256_permutevar8x32_ps(window, at);
      return;
    }
    GatherSamples::load(base, ibin, ok, samples, re0, im0, re1, im1);
  }
};

/// One 16-byte contiguous load per lane + an 8x4 in-register transpose.
/// Masked lanes load a clamped in-bounds dummy and are zeroed afterwards:
/// bit-identical to GatherSamples.
struct ShuffleSamples {
  static void load(const float* base, __m256i ibin, __m256 ok, Index samples,
                   __m256& re0, __m256& im0, __m256& re1, __m256& im1) {
    const __m256i ic = _mm256_min_epi32(
        _mm256_max_epi32(ibin, _mm256_setzero_si256()),
        _mm256_set1_epi32(static_cast<int>(samples) - 2));
    alignas(32) int idx[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), ic);
    __m128 v[8];
    for (int lane = 0; lane < 8; ++lane) {
      v[lane] = _mm_loadu_ps(base + 2 * static_cast<std::size_t>(
                                      static_cast<unsigned>(idx[lane])));
    }
    const __m256 y0 = _mm256_set_m128(v[1], v[0]);  // lanes 0, 1
    const __m256 y1 = _mm256_set_m128(v[3], v[2]);  // lanes 2, 3
    const __m256 y2 = _mm256_set_m128(v[5], v[4]);  // lanes 4, 5
    const __m256 y3 = _mm256_set_m128(v[7], v[6]);  // lanes 6, 7
    // 8x4 transpose: unpack pairs, pick components per 128-bit half, then
    // fix the half-interleaved lane order {0,4,1,5,2,6,3,7}.
    const __m256 t0 = _mm256_unpacklo_ps(y0, y1);
    const __m256 t1 = _mm256_unpackhi_ps(y0, y1);
    const __m256 t2 = _mm256_unpacklo_ps(y2, y3);
    const __m256 t3 = _mm256_unpackhi_ps(y2, y3);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto fix = [&](__m256 x) {
      return _mm256_permutevar8x32_ps(x, order);
    };
    re0 = _mm256_and_ps(
        fix(_mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0))), ok);
    im0 = _mm256_and_ps(
        fix(_mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2))), ok);
    re1 = _mm256_and_ps(
        fix(_mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0))), ok);
    im1 = _mm256_and_ps(
        fix(_mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2))), ok);
  }
};

/// Gamma seeds of one 8-row group (paper §4.4): lane k of row j's seed is
/// Gamma[m + j]^k, and row j steps by Gamma[m + j]^8. seed_re/seed_im hold
/// power k of the group's rows at [8 * k, 8 * k + 8), so row j's seed is
/// the stride-8 column j, which one gather hands it.
struct GammaSeeds {
  alignas(32) float seed_re[8 * 8];
  alignas(32) float seed_im[8 * 8];
  alignas(32) float step_re[8];
  alignas(32) float step_im[8];

  /// Seeds rows [m, m + 8) of `t`: 8 steps from 1, one row per lane. Lanes
  /// past len_m step by 0 and feed no row. Every step is re = fmsub(a.re,
  /// b.re, a.im * b.im), im = fmadd(a.re, b.im, a.im * b.re), in every
  /// variant: the images' bytes depend on this rounding
  /// (KernelVariantTest.GammaSeedsKeepTheirRounding).
  GammaSeeds(const asr::BlockTables& t, Index m, Index len_m) {
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::min<Index>(len_m - m, 8))),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 b_re =
        _mm256_maskload_ps(&t.gam_re[static_cast<std::size_t>(m)], live);
    const __m256 b_im =
        _mm256_maskload_ps(&t.gam_im[static_cast<std::size_t>(m)], live);
    __m256 a_re = _mm256_set1_ps(1.0f);
    __m256 a_im = _mm256_setzero_ps();
    for (int k = 0; k < 8; ++k) {
      _mm256_store_ps(seed_re + 8 * k, a_re);
      _mm256_store_ps(seed_im + 8 * k, a_im);
      const __m256 re =
          _mm256_fmsub_ps(a_re, b_re, _mm256_mul_ps(a_im, b_im));
      a_im = _mm256_fmadd_ps(a_re, b_im, _mm256_mul_ps(a_im, b_re));
      a_re = re;
    }
    _mm256_store_ps(step_re, a_re);
    _mm256_store_ps(step_im, a_im);
  }
};

/// Shared row sweep over prebuilt tables reading AoS samples; kFma selects
/// fused vs split multiply-add throughout the vector body. A row's last
/// partial vector is one more step under a lane mask: masked lanes load no
/// table entry, no sample and no accumulator element, and store nothing.
template <class SampleLoad, bool kFma>
void rows_impl(const asr::BlockTables& t, const float* base, Index samples,
               float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
               Index len_m) {
  const __m256 iota = _mm256_set_ps(7, 6, 5, 4, 3, 2, 1, 0);
  const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i column = _mm256_setr_epi32(0, 8, 16, 24, 32, 40, 48, 56);
  const __m256i max_bin = _mm256_set1_epi32(static_cast<int>(samples) - 1);
  for (Index group = 0; group < len_m; group += 8) {
    const GammaSeeds seeds(t, group, len_m);
    const Index rows = std::min<Index>(len_m - group, 8);
    for (Index j = 0; j < rows; ++j) {
      const Index m = group + j;
      const float bin_b = t.bin_b[static_cast<std::size_t>(m)];
      const float bin_c = t.bin_c[static_cast<std::size_t>(m)];
      const float psi_r = t.psi_re[static_cast<std::size_t>(m)];
      const float psi_i = t.psi_im[static_cast<std::size_t>(m)];
      __m256 g_r = _mm256_i32gather_ps(seeds.seed_re + j, column, 4);
      __m256 g_i = _mm256_i32gather_ps(seeds.seed_im + j, column, 4);
      const __m256 step_r = _mm256_set1_ps(seeds.step_re[j]);
      const __m256 step_i = _mm256_set1_ps(seeds.step_im[j]);
      const __m256 psi_rv = _mm256_set1_ps(psi_r);
      const __m256 psi_iv = _mm256_set1_ps(psi_i);
      const __m256 bin_bv = _mm256_set1_ps(bin_b);
      const __m256 bin_cv = _mm256_set1_ps(bin_c);
      float* row_re = acc_re + m * acc_pitch;
      float* row_im = acc_im + m * acc_pitch;
      // Pixels [l, l + 8) of the row; in the masked step `live` keeps the
      // lanes below len_l.
      const auto step = [&](Index l, auto masked, __m256i live) {
        const auto load = [&](const float* p) {
          if constexpr (decltype(masked)::value) {
            return _mm256_maskload_ps(p, live);
          } else {
            return _mm256_loadu_ps(p);
          }
        };
        const __m256 lvec =
            _mm256_add_ps(iota, _mm256_set1_ps(static_cast<float>(l)));
        const __m256 bin_av = load(&t.bin_a[static_cast<std::size_t>(l)]);
        const __m256 bin =
            madd<kFma>(lvec, bin_cv, _mm256_add_ps(bin_av, bin_bv));
        const __m256i ibin = _mm256_cvttps_epi32(bin);
        const __m256 nonneg =
            _mm256_cmp_ps(bin, _mm256_setzero_ps(), _CMP_GE_OQ);
        const __m256 inrange =
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(max_bin, ibin));
        // Guard against cvttps saturation (INT_MIN) for out-of-range bins.
        const __m256 iok = _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(ibin, _mm256_set1_epi32(-1)));
        __m256 ok = _mm256_and_ps(_mm256_and_ps(nonneg, inrange), iok);
        if constexpr (decltype(masked)::value) {
          ok = _mm256_and_ps(ok, _mm256_castsi256_ps(live));
        }
        const __m256 frac = _mm256_sub_ps(bin, _mm256_cvtepi32_ps(ibin));
        __m256 re0;
        __m256 im0;
        __m256 re1;
        __m256 im1;
        SampleLoad::load(base, ibin, ok, samples, re0, im0, re1, im1);
        const __m256 s_r = madd<kFma>(frac, _mm256_sub_ps(re1, re0), re0);
        const __m256 s_i = madd<kFma>(frac, _mm256_sub_ps(im1, im0), im0);
        const __m256 phi_r = load(&t.phi_re[static_cast<std::size_t>(l)]);
        const __m256 phi_i = load(&t.phi_im[static_cast<std::size_t>(l)]);
        const __m256 t_r = msub<kFma>(phi_r, g_r, _mm256_mul_ps(phi_i, g_i));
        const __m256 t_i = madd<kFma>(phi_r, g_i, _mm256_mul_ps(phi_i, g_r));
        const __m256 a_r = msub<kFma>(t_r, psi_rv, _mm256_mul_ps(t_i, psi_iv));
        const __m256 a_i = madd<kFma>(t_r, psi_iv, _mm256_mul_ps(t_i, psi_rv));
        const __m256 ng_r = msub<kFma>(g_r, step_r, _mm256_mul_ps(g_i, step_i));
        g_i = madd<kFma>(g_r, step_i, _mm256_mul_ps(g_i, step_r));
        g_r = ng_r;
        const __m256 c_r = msub<kFma>(a_r, s_r, _mm256_mul_ps(a_i, s_i));
        const __m256 c_i = madd<kFma>(a_r, s_i, _mm256_mul_ps(a_i, s_r));
        const __m256 out_r = _mm256_add_ps(load(row_re + l), c_r);
        const __m256 out_i = _mm256_add_ps(load(row_im + l), c_i);
        if constexpr (decltype(masked)::value) {
          _mm256_maskstore_ps(row_re + l, live, out_r);
          _mm256_maskstore_ps(row_im + l, live, out_i);
        } else {
          _mm256_storeu_ps(row_re + l, out_r);
          _mm256_storeu_ps(row_im + l, out_i);
        }
      };
      const __m256i all = _mm256_set1_epi32(-1);
      Index l = 0;
      for (; l + 8 <= len_l; l += 8) step(l, std::false_type{}, all);
      if (l < len_l) {
        step(l, std::true_type{},
             _mm256_cmpgt_epi32(
                 _mm256_set1_epi32(static_cast<int>(len_l - l)), lane_index));
      }
    }
  }
}

void rows_aos_avx2(const asr::BlockTables& t, const CFloat* in, Index samples,
                   float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
                   Index len_m, KernelVariant variant) {
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

constexpr int kTableLanes = 4;

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
  [[nodiscard]] __m256d load(Part Seeds::*field, double Part::*part) const {
    alignas(32) double v[kTableLanes];
    for (int i = 0; i < kTableLanes; ++i) {
      v[i] = seeds[i < count ? i : 0].*field.*part;
    }
    return _mm256_load_pd(v);
  }

  [[nodiscard]] Index longest(Extent extent) const {
    Index n = 0;
    for (int i = 0; i < count; ++i) {
      if (seeds[i].*extent > n) n = seeds[i].*extent;
    }
    return n;
  }
};

/// Stores entries [j, j + 4) of `array` in every lane: rows[k] holds entry
/// j + k of lanes 0..3 and becomes lane k's 4 entries (a 4x4 transpose);
/// a lane writes only its entries below its extent.
void store_lanes(__m128 (&rows)[4], const TableLanes& lanes, Extent extent,
                 Array array, Index j) {
  _MM_TRANSPOSE4_PS(rows[0], rows[1], rows[2], rows[3]);
  const __m128i lane_index = _mm_setr_epi32(0, 1, 2, 3);
  for (int i = 0; i < lanes.count; ++i) {
    const Index left = lanes.seeds[i].*extent - j;
    if (left <= 0) continue;
    const __m128i live = _mm_cmpgt_epi32(
        _mm_set1_epi32(static_cast<int>(left >= 4 ? 4 : left)), lane_index);
    _mm_maskstore_ps((lanes.out[i]->*array).data() + j, live, rows[i]);
  }
}

/// One ramp array (asr::RampSeeds) in every lane.
void ramp_lanes(const TableLanes& lanes, asr::RampSeeds Seeds::*field,
                Extent extent, Array array) {
  __m256d value = lanes.load(field, &asr::RampSeeds::value);
  __m256d step = lanes.load(field, &asr::RampSeeds::step);
  const __m256d curve = lanes.load(field, &asr::RampSeeds::curve);
  const Index n = lanes.longest(extent);
  for (Index j = 0; j < n; j += 4) {
    __m128 rows[4];
    for (__m128& row : rows) {
      row = _mm256_cvtpd_ps(value);
      value = _mm256_add_pd(value, step);
      step = _mm256_add_pd(step, curve);
    }
    store_lanes(rows, lanes, extent, array, j);
  }
}

/// a *= b as asr::expand_table_seeds pins it.
inline void complex_step(__m256d& a_re, __m256d& a_im, __m256d b_re,
                         __m256d b_im) {
  const __m256d re = _mm256_fmsub_pd(a_re, b_re, _mm256_mul_pd(a_im, b_im));
  a_im = _mm256_fmadd_pd(a_re, b_im, _mm256_mul_pd(a_im, b_re));
  a_re = re;
}

inline void renormalize(__m256d& re, __m256d& im) {
  const __m256d norm =
      _mm256_sqrt_pd(_mm256_fmadd_pd(re, re, _mm256_mul_pd(im, im)));
  re = _mm256_div_pd(re, norm);
  im = _mm256_div_pd(im, norm);
}

/// One phase array pair (asr::PhaseSeeds) in every lane. A lane steps past
/// its own last entry only while a longer lane still needs entries; those
/// steps feed no stored entry.
void phase_lanes(const TableLanes& lanes, asr::PhaseSeeds Seeds::*field,
                 Extent extent, Array array_re, Array array_im) {
  __m256d u_re = lanes.load(field, &asr::PhaseSeeds::u_re);
  __m256d u_im = lanes.load(field, &asr::PhaseSeeds::u_im);
  __m256d v_re = lanes.load(field, &asr::PhaseSeeds::v_re);
  __m256d v_im = lanes.load(field, &asr::PhaseSeeds::v_im);
  const __m256d w_re = lanes.load(field, &asr::PhaseSeeds::w_re);
  const __m256d w_im = lanes.load(field, &asr::PhaseSeeds::w_im);
  const Index n = lanes.longest(extent);
  for (Index j = 0; j < n; j += 4) {
    __m128 rows_re[4];
    __m128 rows_im[4];
    for (int k = 0; k < 4; ++k) {
      rows_re[k] = _mm256_cvtpd_ps(u_re);
      rows_im[k] = _mm256_cvtpd_ps(u_im);
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

void build_tables_avx2(const Seeds* seeds, Tables* const* out, int count) {
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

const AsrIsaOps& asr_isa_ops_avx2() {
  static const AsrIsaOps ops{8, kTableLanes, "avx2", &rows_aos_avx2,
                              &build_tables_avx2};
  return ops;
}

}  // namespace sarbp::bp::detail
