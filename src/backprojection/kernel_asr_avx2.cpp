// AVX2 ASR row kernels and table build (paper §4.4, the Xeon-style 8-lane
// path; the build seeds and expands 4 table sets at once, one per f64
// lane): the traits and sample loads that instantiate kernel_asr_rows.h and
// asr/seed_lanes.h at this width. This
// TU is compiled with -march=x86-64-v3 regardless of the build's baseline
// -march — on an AVX-512 build host it still emits genuine 8-lane AVX2
// code, which is what lets the parity tests force AVX2-on-an-AVX-512-host
// and the dispatcher serve hosts without AVX-512 from the same binary.
// Entered only through a runtime cpuid check (kernel_simd_ops.h); all
// code is in an anonymous namespace so none of it can leak to other TUs
// through vague linkage.
#include "backprojection/kernel_asr_rows.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/types.h"

#include <immintrin.h>

#include <cstddef>

namespace sarbp::bp::detail {
namespace {

/// kernel_asr_rows.h's V at 8 f32 / 4 f64 lanes. A mask lane is live when
/// all its bits are set.
struct Avx2 {
  using F = __m256;
  using I = __m256i;
  using M = __m256;
  static constexpr int kWidth = 8;
  /// One vector per strip: its chi and Omega stay in registers down every
  /// row; strips of 2 and 3 read no faster (EXPERIMENTS.md).
  static constexpr int kStrip = 1;

  static F set1(float v) { return _mm256_set1_ps(v); }
  static F iota() { return _mm256_set_ps(7, 6, 5, 4, 3, 2, 1, 0); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F add(F a, F b, M ok) {
    return _mm256_blendv_ps(a, _mm256_add_ps(a, b), ok);
  }
  static F fmadd(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F fmsub(F a, F b, F c) { return _mm256_fmsub_ps(a, b, c); }
  static M first_lanes(Index n) {
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
  }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static F load(const float* p, M live) {
    return _mm256_maskload_ps(p, _mm256_castps_si256(live));
  }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, F v, M live) {
    _mm256_maskstore_ps(p, _mm256_castps_si256(live), v);
  }
  static I truncate(F v) { return _mm256_cvttps_epi32(v); }
  static F to_float(I v) { return _mm256_cvtepi32_ps(v); }
  static M bin_ok(F bin, Index samples) {
    return _mm256_and_ps(
        _mm256_cmp_ps(bin, _mm256_setzero_ps(), _CMP_GE_OQ),
        _mm256_cmp_ps(bin, _mm256_set1_ps(static_cast<float>(samples - 1)),
                      _CMP_LT_OQ));
  }
  static M both(M a, M b) { return _mm256_and_ps(a, b); }
};

/// kernel_asr_rows.h's T (and asr/seed_lanes.h's L) at 4 f64 lanes. A
/// mask lane is live when all its bits are set.
struct Avx2Table {
  using D = __m256d;
  using M = __m256d;
  using H = __m128;
  static constexpr int kLanes = 4;

  static D set1(double x) { return _mm256_set1_pd(x); }
  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D div(D a, D b) { return _mm256_div_pd(a, b); }
  static D sqrt(D a) { return _mm256_sqrt_pd(a); }
  static D neg(D a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static D fmadd(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static D fmsub(D a, D b, D c) { return _mm256_fmsub_pd(a, b, c); }
  static D fnmadd(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
  static D round(D a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static M gt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static M ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static M le(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static M eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static M either(M a, M b) { return _mm256_or_pd(a, b); }
  static D select(M m, D a, D b) { return _mm256_blendv_pd(b, a, m); }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }

  static H to_half(D v) { return _mm256_cvtpd_ps(v); }
  static void transpose(H (&rows)[4]) {
    _MM_TRANSPOSE4_PS(rows[0], rows[1], rows[2], rows[3]);
  }
  static void store(float* p, H v) { _mm_storeu_ps(p, v); }
  static void store_first(float* p, H v, Index n) {
    const __m128i live =
        _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(n >= 4 ? 4 : n)),
                        _mm_setr_epi32(0, 1, 2, 3));
    _mm_maskstore_ps(p, live, v);
  }
};

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

/// kAuto, cheapest first, as on AVX-512 (kernel_asr_avx512.cpp):
///  - one bin: every lane is in range on lane 0's bin, so re0, im0, re1
///    and im1 are four broadcasts of In[bin] and In[bin + 1] from memory;
///  - the window: every lane is in range and every bin lies in [lo, lo +
///    2], lo the smaller of the first and last lanes' bins (an unsigned
///    compare of the offsets, whatever the bins' order), and lo + 4 <=
///    samples: one 8-float load of In[lo .. lo + 4) and four permutes;
///  - the gathers otherwise.
/// Same values as the gathers: bit-identical to GatherSamples.
struct WindowSamples {
  static void load(const float* base, __m256i ibin, __m256 ok, Index samples,
                   __m256& re0, __m256& im0, __m256& re1, __m256& im1) {
    const __m256i bin0 = _mm256_broadcastd_epi32(_mm256_castsi256_si128(ibin));
    const __m256 same = _mm256_castsi256_ps(_mm256_cmpeq_epi32(ibin, bin0));
    if (_mm256_movemask_ps(_mm256_and_ps(ok, same)) == 0xFF) {
      const float* at =
          base + 2 * static_cast<std::size_t>(
                         _mm_cvtsi128_si32(_mm256_castsi256_si128(ibin)));
      re0 = _mm256_set1_ps(at[0]);
      im0 = _mm256_set1_ps(at[1]);
      re1 = _mm256_set1_ps(at[2]);
      im1 = _mm256_set1_ps(at[3]);
      return;
    }
    const __m256i lo = _mm256_min_epi32(
        bin0, _mm256_permutevar8x32_epi32(ibin, _mm256_set1_epi32(7)));
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

}  // namespace

const AsrIsaOps& asr_isa_ops_avx2() {
  static constexpr AsrIsaOps ops{
      Avx2Table::kLanes,
      &rows_aos<Avx2, WindowSamples, GatherSamples, ShuffleSamples>,
      &build_tables<Avx2Table>, &unit_phases<Avx2Table>};
  return ops;
}

}  // namespace sarbp::bp::detail
