// AVX2 ASR row kernels (paper §4.4, the Xeon-style 8-lane path). This TU
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

#include <cstddef>

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

/// Shared row sweep over prebuilt tables reading AoS samples; kFma selects
/// fused vs split multiply-add throughout the vector body.
template <class SampleLoad, bool kFma>
void rows_impl(const asr::BlockTables& t, const float* base, Index samples,
               float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
               Index len_m) {
  const __m256 iota = _mm256_set_ps(7, 6, 5, 4, 3, 2, 1, 0);
  const __m256i max_bin = _mm256_set1_epi32(static_cast<int>(samples) - 1);
  for (Index m = 0; m < len_m; ++m) {
    const float bin_b = t.bin_b[static_cast<std::size_t>(m)];
    const float bin_c = t.bin_c[static_cast<std::size_t>(m)];
    const float psi_r = t.psi_re[static_cast<std::size_t>(m)];
    const float psi_i = t.psi_im[static_cast<std::size_t>(m)];
    const GammaLanes lanes =
        make_gamma_lanes(t.gam_re[static_cast<std::size_t>(m)],
                         t.gam_im[static_cast<std::size_t>(m)], 8);
    __m256 g_r = _mm256_load_ps(lanes.re);
    __m256 g_i = _mm256_load_ps(lanes.im);
    const __m256 step_r = _mm256_set1_ps(lanes.step_re);
    const __m256 step_i = _mm256_set1_ps(lanes.step_im);
    const __m256 psi_rv = _mm256_set1_ps(psi_r);
    const __m256 psi_iv = _mm256_set1_ps(psi_i);
    const __m256 bin_bv = _mm256_set1_ps(bin_b);
    const __m256 bin_cv = _mm256_set1_ps(bin_c);
    float* row_re = acc_re + m * acc_pitch;
    float* row_im = acc_im + m * acc_pitch;
    Index l = 0;
    for (; l + 8 <= len_l; l += 8) {
      const __m256 lvec =
          _mm256_add_ps(iota, _mm256_set1_ps(static_cast<float>(l)));
      const __m256 bin_av =
          _mm256_loadu_ps(&t.bin_a[static_cast<std::size_t>(l)]);
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
      const __m256 ok = _mm256_and_ps(_mm256_and_ps(nonneg, inrange), iok);
      const __m256 frac = _mm256_sub_ps(bin, _mm256_cvtepi32_ps(ibin));
      __m256 re0;
      __m256 im0;
      __m256 re1;
      __m256 im1;
      SampleLoad::load(base, ibin, ok, samples, re0, im0, re1, im1);
      const __m256 s_r = madd<kFma>(frac, _mm256_sub_ps(re1, re0), re0);
      const __m256 s_i = madd<kFma>(frac, _mm256_sub_ps(im1, im0), im0);
      const __m256 phi_r =
          _mm256_loadu_ps(&t.phi_re[static_cast<std::size_t>(l)]);
      const __m256 phi_i =
          _mm256_loadu_ps(&t.phi_im[static_cast<std::size_t>(l)]);
      const __m256 t_r = msub<kFma>(phi_r, g_r, _mm256_mul_ps(phi_i, g_i));
      const __m256 t_i = madd<kFma>(phi_r, g_i, _mm256_mul_ps(phi_i, g_r));
      const __m256 a_r = msub<kFma>(t_r, psi_rv, _mm256_mul_ps(t_i, psi_iv));
      const __m256 a_i = madd<kFma>(t_r, psi_iv, _mm256_mul_ps(t_i, psi_rv));
      const __m256 ng_r = msub<kFma>(g_r, step_r, _mm256_mul_ps(g_i, step_i));
      g_i = madd<kFma>(g_r, step_i, _mm256_mul_ps(g_i, step_r));
      g_r = ng_r;
      const __m256 c_r = msub<kFma>(a_r, s_r, _mm256_mul_ps(a_i, s_i));
      const __m256 c_i = madd<kFma>(a_r, s_i, _mm256_mul_ps(a_i, s_r));
      _mm256_storeu_ps(row_re + l,
                       _mm256_add_ps(_mm256_loadu_ps(row_re + l), c_r));
      _mm256_storeu_ps(row_im + l,
                       _mm256_add_ps(_mm256_loadu_ps(row_im + l), c_i));
    }
    float sg_r = _mm256_cvtss_f32(g_r);
    float sg_i = _mm256_cvtss_f32(g_i);
    const float gam_r = t.gam_re[static_cast<std::size_t>(m)];
    const float gam_i = t.gam_im[static_cast<std::size_t>(m)];
    for (; l < len_l; ++l) {
      const float bin = t.bin_a[static_cast<std::size_t>(l)] + bin_b +
                        static_cast<float>(l) * bin_c;
      const float phi_r = t.phi_re[static_cast<std::size_t>(l)];
      const float phi_i = t.phi_im[static_cast<std::size_t>(l)];
      const float t_r = phi_r * sg_r - phi_i * sg_i;
      const float t_i = phi_r * sg_i + phi_i * sg_r;
      const float a_r = t_r * psi_r - t_i * psi_i;
      const float a_i = t_r * psi_i + t_i * psi_r;
      const float ng_r = sg_r * gam_r - sg_i * gam_i;
      sg_i = sg_r * gam_i + sg_i * gam_r;
      sg_r = ng_r;
      if (bin >= 0.0f) {
        const auto ib = static_cast<Index>(bin);
        if (ib + 1 < samples) {
          const float frac = bin - static_cast<float>(ib);
          const float r0 = base[2 * ib];
          const float i0 = base[2 * ib + 1];
          const float r1 = base[2 * ib + 2];
          const float i1 = base[2 * ib + 3];
          const float s_r = r0 + frac * (r1 - r0);
          const float s_i = i0 + frac * (i1 - i0);
          row_re[l] += a_r * s_r - a_i * s_i;
          row_im[l] += a_r * s_i + a_i * s_r;
        }
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

}  // namespace

const AsrIsaOps& asr_isa_ops_avx2() {
  static const AsrIsaOps ops{8, "avx2", &rows_aos_avx2};
  return ops;
}

}  // namespace sarbp::bp::detail
