// AVX-512 ASR row kernels (paper §4.4, the Phi-style 16-lane path).
// This TU is compiled with -march=x86-64-v4 regardless of the build's
// baseline -march and is only ever entered through the dispatcher after a
// runtime cpuid check (kernel_simd_ops.h). Everything lives in an
// anonymous namespace so no v4-compiled code can leak to other TUs through
// vague linkage.
//
// rows_aos reads samples straight from the AoS pulse buffer, where In[bin]
// and In[bin+1] are four adjacent floats; its inner loop is a selectable
// gather / shuffle-transpose / no-FMA variant.
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/types.h"

#include <immintrin.h>

#include <cstddef>

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

/// The shared row sweep. SampleLoad supplies the interpolation operands;
/// kFma selects fused vs split multiply-add everywhere in the vector body
/// (bin recurrence, interpolation, complex products).
template <class SampleLoad, bool kFma>
void rows_impl(const asr::BlockTables& t, const float* base, Index samples,
               float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
               Index len_m) {
  const __m512 iota =
      _mm512_set_ps(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i max_bin = _mm512_set1_epi32(static_cast<int>(samples) - 1);
  for (Index m = 0; m < len_m; ++m) {
    const float bin_b = t.bin_b[static_cast<std::size_t>(m)];
    const float bin_c = t.bin_c[static_cast<std::size_t>(m)];
    const float psi_r = t.psi_re[static_cast<std::size_t>(m)];
    const float psi_i = t.psi_im[static_cast<std::size_t>(m)];
    const GammaLanes lanes =
        make_gamma_lanes(t.gam_re[static_cast<std::size_t>(m)],
                         t.gam_im[static_cast<std::size_t>(m)], 16);
    __m512 g_r = _mm512_load_ps(lanes.re);
    __m512 g_i = _mm512_load_ps(lanes.im);
    const __m512 step_r = _mm512_set1_ps(lanes.step_re);
    const __m512 step_i = _mm512_set1_ps(lanes.step_im);
    const __m512 psi_rv = _mm512_set1_ps(psi_r);
    const __m512 psi_iv = _mm512_set1_ps(psi_i);
    const __m512 bin_bv = _mm512_set1_ps(bin_b);
    const __m512 bin_cv = _mm512_set1_ps(bin_c);
    float* row_re = acc_re + m * acc_pitch;
    float* row_im = acc_im + m * acc_pitch;
    Index l = 0;
    for (; l + 16 <= len_l; l += 16) {
      const __m512 lvec =
          _mm512_add_ps(iota, _mm512_set1_ps(static_cast<float>(l)));
      const __m512 bin_av =
          _mm512_loadu_ps(&t.bin_a[static_cast<std::size_t>(l)]);
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
      const __mmask16 ok = nonneg & inrange & iok;
      const __m512 frac = _mm512_sub_ps(bin, _mm512_cvtepi32_ps(ibin));
      __m512 re0;
      __m512 im0;
      __m512 re1;
      __m512 im1;
      SampleLoad::load(base, ibin, ok, samples, re0, im0, re1, im1);
      const __m512 s_r = madd<kFma>(frac, _mm512_sub_ps(re1, re0), re0);
      const __m512 s_i = madd<kFma>(frac, _mm512_sub_ps(im1, im0), im0);
      const __m512 phi_r =
          _mm512_loadu_ps(&t.phi_re[static_cast<std::size_t>(l)]);
      const __m512 phi_i =
          _mm512_loadu_ps(&t.phi_im[static_cast<std::size_t>(l)]);
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
      _mm512_storeu_ps(row_re + l,
                       _mm512_add_ps(_mm512_loadu_ps(row_re + l), c_r));
      _mm512_storeu_ps(row_im + l,
                       _mm512_add_ps(_mm512_loadu_ps(row_im + l), c_i));
    }
    // Scalar tail continues the recurrence from lane 0 of the vector state.
    float sg_r = _mm512_cvtss_f32(g_r);
    float sg_i = _mm512_cvtss_f32(g_i);
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
    case KernelVariant::kGather:
      rows_impl<GatherSamples, true>(t, base, samples, acc_re, acc_im,
                                     acc_pitch, len_l, len_m);
      return;
  }
}

}  // namespace

const AsrIsaOps& asr_isa_ops_avx512() {
  static const AsrIsaOps ops{16, "avx512", &rows_aos_avx512};
  return ops;
}

}  // namespace sarbp::bp::detail
