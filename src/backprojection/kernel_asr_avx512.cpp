// AVX-512 ASR row kernels and table build (paper §4.4, the Phi-style
// 16-lane path; the build seeds and expands 8 table sets at once, one per
// f64 lane): the traits and sample loads that instantiate
// kernel_asr_rows.h and asr/seed_lanes.h at this width.
// This TU is compiled with -march=x86-64-v4 regardless of the build's
// baseline -march and is only ever entered through the dispatcher after a
// runtime cpuid check (kernel_simd_ops.h). Everything lives in an
// anonymous namespace so no v4-compiled code can leak to other TUs through
// vague linkage.
//
// The row kernels read samples straight from the AoS pulse buffer, where
// In[bin] and In[bin+1] are four adjacent floats; the inner loop is a
// selectable window / gather / shuffle-transpose / no-FMA variant.
#include "backprojection/kernel_asr_rows.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/types.h"

#include <immintrin.h>

#include <cstddef>

// GCC's -Wmaybe-uninitialized and -Wuninitialized fire inside the AVX-512
// intrinsic headers when _mm512_cvttps_epi32 or _mm512_max_epi32 is inlined
// here: the intrinsics deliberately start from _mm512_undefined_epi32 (GCC
// bug 105593). Which of the two fires depends on the inlining. Suppress
// just those diagnostics for this translation unit so -Werror builds stay
// clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace sarbp::bp::detail {
namespace {

/// kernel_asr_rows.h's V at 16 f32 / 8 f64 lanes.
struct Avx512 {
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  static constexpr int kWidth = 16;
  /// Vectors per strip (kernel_asr_rows.h, strip_impl): their chi and
  /// Omega stay in 16 of the 32 zmm registers down every row; strips of
  /// 2, 3 and 5 read slower (EXPERIMENTS.md).
  static constexpr int kStrip = 4;

  static F set1(float v) { return _mm512_set1_ps(v); }
  static F iota() {
    return _mm512_set_ps(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1,
                         0);
  }
  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F add(F a, F b, M ok) { return _mm512_mask_add_ps(a, ok, a, b); }
  static F fmadd(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F fmsub(F a, F b, F c) { return _mm512_fmsub_ps(a, b, c); }
  static M first_lanes(Index n) { return static_cast<M>((1U << n) - 1U); }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static F load(const float* p, M live) {
    return _mm512_maskz_loadu_ps(live, p);
  }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, F v, M live) {
    _mm512_mask_storeu_ps(p, live, v);
  }
  static I truncate(F v) { return _mm512_cvttps_epi32(v); }
  static F to_float(I v) { return _mm512_cvtepi32_ps(v); }
  static M bin_ok(F bin, Index samples) {
    return _mm512_mask_cmp_ps_mask(
        _mm512_cmp_ps_mask(bin, _mm512_setzero_ps(), _CMP_GE_OQ), bin,
        _mm512_set1_ps(static_cast<float>(samples - 1)), _CMP_LT_OQ);
  }
  static M both(M a, M b) { return static_cast<M>(a & b); }
};

/// kernel_asr_rows.h's T (and asr/seed_lanes.h's L) at 8 f64 lanes.
struct Avx512Table {
  using D = __m512d;
  using M = __mmask8;
  using H = __m256;
  static constexpr int kLanes = 8;

  static D set1(double x) { return _mm512_set1_pd(x); }
  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm512_add_pd(a, b); }
  static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D div(D a, D b) { return _mm512_div_pd(a, b); }
  static D sqrt(D a) { return _mm512_sqrt_pd(a); }
  static D neg(D a) { return _mm512_xor_pd(a, _mm512_set1_pd(-0.0)); }
  static D fmadd(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static D fmsub(D a, D b, D c) { return _mm512_fmsub_pd(a, b, c); }
  static D fnmadd(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
  static D round(D a) {
    return _mm512_roundscale_pd(a, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  }
  static M gt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
  static M ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
  static M le(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static M either(M a, M b) { return static_cast<M>(a | b); }
  static D select(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  static unsigned bits(M m) { return m; }

  static H to_half(D v) { return _mm512_cvtpd_ps(v); }
  static void transpose(H (&rows)[8]) {
    const H t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
    const H t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
    const H t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
    const H t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
    const H t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
    const H t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
    const H t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
    const H t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
    const H s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const H s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const H s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const H s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const H s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const H s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const H s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const H s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    rows[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    rows[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    rows[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    rows[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    rows[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    rows[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    rows[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    rows[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
  }
  static void store(float* p, H v) { _mm256_storeu_ps(p, v); }
  static void store_first(float* p, H v, Index n) {
    const auto live = static_cast<__mmask8>(n >= 8 ? 0xFF : (1U << n) - 1U);
    _mm256_mask_storeu_ps(p, live, v);
  }
};

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

/// Sample-load policy (kAuto), cheapest first. The wavefront loop order
/// (§4.3) keeps neighbouring pixels on the same or adjacent bins, so most
/// vectors take one of the first two:
///  - one bin: every lane is in range on lane 0's bin, so re0, im0, re1
///    and im1 are four broadcasts of In[bin] and In[bin + 1] from memory,
///    on the load ports; `ok` keeps bin <= samples - 2, so they stay in
///    the pulse;
///  - the window: every lane is in range and every bin lies in [lo,
///    lo + 6], lo the smaller of the first and last lanes' bins (one
///    unsigned compare of the offsets, whatever the bins' order), and lo +
///    8 <= samples: one 16-float load of In[lo .. lo + 8) and four
///    in-register permutes;
///  - the gathers otherwise.
/// Every lane gets the gathers' values, so the image is bit-identical to
/// GatherSamples.
struct WindowSamples {
  static void load(const float* base, __m512i ibin, __mmask16 ok,
                   Index samples, __m512& re0, __m512& im0, __m512& re1,
                   __m512& im1) {
    const __m512i bin0 = _mm512_broadcastd_epi32(_mm512_castsi512_si128(ibin));
    if (_mm512_mask_cmpeq_epi32_mask(ok, ibin, bin0) == 0xFFFF) {
      const float* at =
          base + 2 * static_cast<std::size_t>(
                         _mm_cvtsi128_si32(_mm512_castsi512_si128(ibin)));
      re0 = _mm512_set1_ps(at[0]);
      im0 = _mm512_set1_ps(at[1]);
      re1 = _mm512_set1_ps(at[2]);
      im1 = _mm512_set1_ps(at[3]);
      return;
    }
    const __m512i lo = _mm512_min_epi32(
        bin0, _mm512_permutexvar_epi32(_mm512_set1_epi32(15), ibin));
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

}  // namespace

const AsrIsaOps& asr_isa_ops_avx512() {
  static constexpr AsrIsaOps ops{
      Avx512Table::kLanes,
      &rows_aos<Avx512, WindowSamples, GatherSamples, ShuffleSamples>,
      &build_tables<Avx512Table>, &unit_phases<Avx512Table>};
  return ops;
}

}  // namespace sarbp::bp::detail
