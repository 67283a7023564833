#include "fixed/simd.h"

#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PP_FIXED_X86 1
#endif

namespace pp::fixed {

#if defined(PP_FIXED_X86)

namespace {

bool avx2_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

// The double-lane matrix kernels also use FMA (present on every AVX2
// part in practice, but detected separately all the same).
bool lanes_supported() {
  static const bool ok =
      avx2_supported() && __builtin_cpu_supports("fma");
  return ok;
}

// Stack staging bounds of the double-lane kernels.
constexpr uint32_t kMaxMmmK = 256;   // MMM inner dimension
constexpr uint32_t kMaxBeams = 64;   // LMMSE beams per sub-carrier

#define PP_LANES __attribute__((target("avx2,fma"))) inline

// ---- exact integer arithmetic in double lanes ------------------------------
//
// Every lane value below is an integer.  Q15 operands are below 2^15 in
// magnitude, their products below 2^31, and every sum formed stays far
// below 2^53, so additions, multiplications and FMAs are exact and the
// scalar Q15 layer's integer results follow from exact double operations.

// sat16 on an integer-valued lane.
PP_LANES __m256d lanes_sat(__m256d v) {
  return _mm256_min_pd(_mm256_max_pd(v, _mm256_set1_pd(-32768.0)),
                       _mm256_set1_pd(32767.0));
}

// cacc::round(): sat16((acc + 2^14) >> 15); the arithmetic shift is a
// floor, and scaling by 2^-15 is exact.
PP_LANES __m256d lanes_round(__m256d acc) {
  const __m256d t = _mm256_add_pd(acc, _mm256_set1_pd(16384.0));
  return lanes_sat(
      _mm256_floor_pd(_mm256_mul_pd(t, _mm256_set1_pd(1.0 / 32768.0))));
}

// common::div_q15(a, b) for a Cholesky diagonal b in [0, 0x7fff].  The
// rounded numerator s satisfies |s| < 2^31; when s/b is not an integer it
// lies at least 1/b > 2^-15 from one, far beyond the division's rounding
// error (< 2^-22), so truncating the double quotient is exact.
PP_LANES __m256d lanes_div(__m256d a, __m256d b) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d num = _mm256_mul_pd(a, _mm256_set1_pd(32768.0));
  const __m256d half = _mm256_floor_pd(_mm256_mul_pd(b, _mm256_set1_pd(0.5)));
  const __m256d s =
      _mm256_blendv_pd(_mm256_sub_pd(num, half), _mm256_add_pd(num, half),
                       _mm256_cmp_pd(num, zero, _CMP_GE_OQ));
  const __m256d q = lanes_sat(_mm256_round_pd(
      _mm256_div_pd(s, b), _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC));
  const __m256d by_zero =
      _mm256_blendv_pd(_mm256_set1_pd(-32768.0), _mm256_set1_pd(32767.0),
                       _mm256_cmp_pd(a, zero, _CMP_GE_OQ));
  return _mm256_blendv_pd(q, by_zero, _mm256_cmp_pd(b, zero, _CMP_EQ_OQ));
}

// common::sqrt_q15(t): floor(sqrt(t * 2^15)) for t > 0, else 0.  The
// argument is below 2^30, and a non-square m lies more than 2^-16 below
// the next integer root, so the correctly rounded sqrt floors exactly.
PP_LANES __m256d lanes_sqrt(__m256d t) {
  const __m256d m = _mm256_mul_pd(_mm256_max_pd(t, _mm256_setzero_pd()),
                                  _mm256_set1_pd(32768.0));
  return _mm256_floor_pd(_mm256_sqrt_pd(m));
}

// Four packed cq15 words (one per lane) -> re / im lanes.
PP_LANES void lanes_unpack(__m128i w, __m256d& re, __m256d& im) {
  re = _mm256_cvtepi32_pd(_mm_srai_epi32(_mm_slli_epi32(w, 16), 16));
  im = _mm256_cvtepi32_pd(_mm_srai_epi32(w, 16));
}

// Integer-valued re / im lanes in int16 range -> four packed cq15 words.
PP_LANES __m128i lanes_pack(__m256d re, __m256d im) {
  const __m128i p =
      _mm_packs_epi32(_mm256_cvtpd_epi32(re), _mm256_cvtpd_epi32(im));
  return _mm_unpacklo_epi16(p, _mm_srli_si128(p, 8));  // {re, im} pairs
}

inline int word(cq15 v) { return static_cast<int>(common::pack_cq15(v)); }

// Array-of-structures -> lanes: element e of lane w is p[w*stride + e];
// re[e] / im[e] receive it for all four lanes.  Runs of four elements go
// through a 4x4 transpose of 32-bit words.
PP_LANES void lanes_gather(const cq15* p, size_t stride, uint32_t n,
                           __m256d* re, __m256d* im) {
  const cq15* p1 = p + stride;
  const cq15* p2 = p1 + stride;
  const cq15* p3 = p2 + stride;
  uint32_t e = 0;
  for (; e + 4 <= n; e += 4) {
    const __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + e));
    const __m128i r1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p1 + e));
    const __m128i r2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p2 + e));
    const __m128i r3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p3 + e));
    const __m128i t0 = _mm_unpacklo_epi32(r0, r1);
    const __m128i t1 = _mm_unpacklo_epi32(r2, r3);
    const __m128i t2 = _mm_unpackhi_epi32(r0, r1);
    const __m128i t3 = _mm_unpackhi_epi32(r2, r3);
    lanes_unpack(_mm_unpacklo_epi64(t0, t1), re[e], im[e]);
    lanes_unpack(_mm_unpackhi_epi64(t0, t1), re[e + 1], im[e + 1]);
    lanes_unpack(_mm_unpacklo_epi64(t2, t3), re[e + 2], im[e + 2]);
    lanes_unpack(_mm_unpackhi_epi64(t2, t3), re[e + 3], im[e + 3]);
  }
  for (; e < n; ++e) {
    lanes_unpack(_mm_setr_epi32(word(p[e]), word(p1[e]), word(p2[e]),
                                word(p3[e])),
                 re[e], im[e]);
  }
}

// ---- input quantization -----------------------------------------------------

// to_q15 on four doubles: (v * scale) * 2^15, +-1/2 by sign, truncate,
// saturate - the scalar's operations in its order (its early saturation
// branches give the same result as clamping after the truncation).
__attribute__((target("avx2"))) inline __m128i quantize4(__m256d v,
                                                        __m256d scale) {
  const __m256d scaled =
      _mm256_mul_pd(_mm256_mul_pd(v, scale), _mm256_set1_pd(32768.0));
  const __m256d half = _mm256_blendv_pd(
      _mm256_set1_pd(-0.5), _mm256_set1_pd(0.5),
      _mm256_cmp_pd(scaled, _mm256_setzero_pd(), _CMP_GE_OQ));
  const __m256d r = _mm256_round_pd(_mm256_add_pd(scaled, half),
                                    _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  return _mm256_cvtpd_epi32(
      _mm256_min_pd(_mm256_max_pd(r, _mm256_set1_pd(-32768.0)),
                    _mm256_set1_pd(32767.0)));
}

__attribute__((target("avx2"))) uint32_t quantize_avx2(
    const std::complex<double>* x, double scale, cq15* q, uint32_t n) {
  const double* d = reinterpret_cast<const double*>(x);  // re, im, re, ...
  const __m256d s = _mm256_set1_pd(scale);
  const uint32_t n4 = n & ~3u;
  for (uint32_t i = 0; i < n4; i += 4) {
    const __m128i lo = quantize4(_mm256_loadu_pd(d + 2 * i), s);
    const __m128i hi = quantize4(_mm256_loadu_pd(d + 2 * i + 4), s);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi32(lo, hi));  // {re, im} x 4, in range
  }
  return n4;
}

// ---- beamforming MMM: lanes across output columns --------------------------

// NV vectors (4*NV columns) of every row; b is staged once per chunk.  The
// four partial products are kept apart so each accumulator chain carries
// one FMA per k.
template <int NV>
PP_LANES void mmm_chunk(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
                        uint32_t p, uint32_t rows, uint32_t q0) {
  __m256d br[kMaxMmmK][NV], bi[kMaxMmmK][NV];
  for (uint32_t k = 0; k < k_dim; ++k) {
    for (int v = 0; v < NV; ++v) {
      lanes_unpack(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
                       b + static_cast<size_t>(k) * p + q0 + 4 * v)),
                   br[k][v], bi[k][v]);
    }
  }
  for (uint32_t i = 0; i < rows; ++i) {
    const cq15* arow = a + static_cast<size_t>(i) * k_dim;
    __m256d rr[NV], ii[NV], ri[NV], ir[NV];
    for (int v = 0; v < NV; ++v) {
      rr[v] = ii[v] = ri[v] = ir[v] = _mm256_setzero_pd();
    }
    for (uint32_t k = 0; k < k_dim; ++k) {
      const __m256d ar = _mm256_set1_pd(arow[k].re);
      const __m256d ai = _mm256_set1_pd(arow[k].im);
      for (int v = 0; v < NV; ++v) {
        rr[v] = _mm256_fmadd_pd(ar, br[k][v], rr[v]);
        ii[v] = _mm256_fmadd_pd(ai, bi[k][v], ii[v]);
        ri[v] = _mm256_fmadd_pd(ar, bi[k][v], ri[v]);
        ir[v] = _mm256_fmadd_pd(ai, br[k][v], ir[v]);
      }
    }
    for (int v = 0; v < NV; ++v) {
      const __m128i out =
          lanes_pack(lanes_round(_mm256_sub_pd(rr[v], ii[v])),
                     lanes_round(_mm256_add_pd(ri[v], ir[v])));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(
                           c + static_cast<size_t>(i) * p + q0 + 4 * v),
                       out);
    }
  }
}

__attribute__((target("avx2,fma"))) uint32_t mmm_cols_lanes(
    const cq15* a, const cq15* b, cq15* c, uint32_t k_dim, uint32_t p,
    uint32_t rows) {
  const uint32_t p4 = p & ~3u;
  uint32_t q0 = 0;
  for (; q0 + 8 <= p4; q0 += 8) mmm_chunk<2>(a, b, c, k_dim, p, rows, q0);
  if (q0 < p4) mmm_chunk<1>(a, b, c, k_dim, p, rows, q0);
  return p4;
}

// ---- per-sub-carrier LMMSE: one sub-carrier per lane -----------------------

// Groups of four consecutive sub-carriers with L layers: the value chains
// of gram_one, cholesky, mf_one and trisolve (q15_kernels.cpp), entry by
// entry.  The factorization reads only the Gramian's lower triangle, so the
// conjugate upper mirror is not formed.

// Lanes -> the four sub-carriers' n-element rows p[w*stride + e].
PP_LANES void lanes_scatter(const __m256d* re, const __m256d* im, uint32_t n,
                            cq15* p, size_t stride) {
  for (uint32_t e = 0; e < n; ++e) {
    alignas(16) uint32_t words[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(words),
                    lanes_pack(re[e], im[e]));
    for (uint32_t w = 0; w < 4; ++w) {
      p[w * stride + e] = common::unpack_cq15(words[w]);
    }
  }
}

// Regularized Gramian, lower triangle (gram_one): g[i*L + j], j <= i.
template <uint32_t L>
PP_LANES void gram_lanes(const __m256d* hr, const __m256d* hi, __m256d sig,
                         uint32_t n_b, __m256d* gr, __m256d* gi) {
  for (uint32_t i = 0; i < L; ++i) {
    for (uint32_t j = 0; j <= i; ++j) {
      __m256d s1 = _mm256_setzero_pd(), s2 = s1, s3 = s1, s4 = s1;
      for (uint32_t b = 0; b < n_b; ++b) {
        const uint32_t bj = b * L + j, bi = b * L + i;
        s1 = _mm256_fmadd_pd(hr[bj], hr[bi], s1);
        s2 = _mm256_fmadd_pd(hi[bj], hi[bi], s2);
        s3 = _mm256_fmadd_pd(hi[bj], hr[bi], s3);
        s4 = _mm256_fmadd_pd(hr[bj], hi[bi], s4);
      }
      gr[i * L + j] = lanes_round(_mm256_add_pd(s1, s2));
      gi[i * L + j] = lanes_round(_mm256_sub_pd(s3, s4));
    }
    gr[i * L + i] = lanes_sat(_mm256_add_pd(gr[i * L + i], sig));
  }
}

// Cholesky, column by column (chol_diag / chol_offdiag): the factor's full
// L x L rows, upper triangle zero.
template <uint32_t L>
PP_LANES void chol_lanes(const __m256d* gr, const __m256d* gi, __m256d* lr,
                         __m256d* li) {
  const __m256d one = _mm256_set1_pd(32768.0);  // Q15 -> Q2.30 widening
  for (uint32_t e = 0; e < L * L; ++e) lr[e] = li[e] = _mm256_setzero_pd();
  for (uint32_t j = 0; j < L; ++j) {
    __m256d acc = _mm256_mul_pd(gr[j * L + j], one);
    for (uint32_t k = 0; k < j; ++k) {
      acc = _mm256_fnmadd_pd(lr[j * L + k], lr[j * L + k], acc);
      acc = _mm256_fnmadd_pd(li[j * L + k], li[j * L + k], acc);
    }
    lr[j * L + j] = lanes_sqrt(lanes_round(acc));
    for (uint32_t i = j + 1; i < L; ++i) {
      __m256d are = _mm256_mul_pd(gr[i * L + j], one);
      __m256d aim = _mm256_mul_pd(gi[i * L + j], one);
      for (uint32_t k = 0; k < j; ++k) {  // acc -= l_ik conj(l_jk)
        are = _mm256_fnmadd_pd(lr[i * L + k], lr[j * L + k], are);
        are = _mm256_fnmadd_pd(li[i * L + k], li[j * L + k], are);
        aim = _mm256_fnmadd_pd(li[i * L + k], lr[j * L + k], aim);
        aim = _mm256_fmadd_pd(lr[i * L + k], li[j * L + k], aim);
      }
      lr[i * L + j] = lanes_div(lanes_round(are), lr[j * L + j]);
      li[i * L + j] = lanes_div(lanes_round(aim), lr[j * L + j]);
    }
  }
}

// Matched filter (mf_one): rhs[i] = round(sum_b y_b conj(h_b[i])).
template <uint32_t L>
PP_LANES void mf_lanes(const __m256d* hr, const __m256d* hi,
                       const __m256d* yr, const __m256d* yi, uint32_t n_b,
                       __m256d* rr, __m256d* ri) {
  for (uint32_t i = 0; i < L; ++i) {
    __m256d s1 = _mm256_setzero_pd(), s2 = s1, s3 = s1, s4 = s1;
    for (uint32_t b = 0; b < n_b; ++b) {
      const uint32_t bi = b * L + i;
      s1 = _mm256_fmadd_pd(yr[b], hr[bi], s1);
      s2 = _mm256_fmadd_pd(yi[b], hi[bi], s2);
      s3 = _mm256_fmadd_pd(yi[b], hr[bi], s3);
      s4 = _mm256_fmadd_pd(yr[b], hi[bi], s4);
    }
    rr[i] = lanes_round(_mm256_add_pd(s1, s2));
    ri[i] = lanes_round(_mm256_sub_pd(s3, s4));
  }
}

// Forward (L z = v) then backward (L^H x = z) substitution (trisolve), in
// place on v, for G independent groups at once: each step's divide waits
// on the step before, so stepping several groups together overlaps their
// latencies.
template <uint32_t L, uint32_t G>
PP_LANES void subst_lanes(const __m256d (*lr)[L * L],
                          const __m256d (*li)[L * L], __m256d (*vr)[L],
                          __m256d (*vi)[L]) {
  const __m256d one = _mm256_set1_pd(32768.0);
  for (uint32_t i = 0; i < L; ++i) {
    for (uint32_t g = 0; g < G; ++g) {
      __m256d are = _mm256_mul_pd(vr[g][i], one);
      __m256d aim = _mm256_mul_pd(vi[g][i], one);
      for (uint32_t k = 0; k < i; ++k) {  // acc -= l_ik z_k
        are = _mm256_fnmadd_pd(lr[g][i * L + k], vr[g][k], are);
        are = _mm256_fmadd_pd(li[g][i * L + k], vi[g][k], are);
        aim = _mm256_fnmadd_pd(lr[g][i * L + k], vi[g][k], aim);
        aim = _mm256_fnmadd_pd(li[g][i * L + k], vr[g][k], aim);
      }
      vr[g][i] = lanes_div(lanes_round(are), lr[g][i * L + i]);
      vi[g][i] = lanes_div(lanes_round(aim), lr[g][i * L + i]);
    }
  }
  for (uint32_t ii = L; ii-- > 0;) {
    for (uint32_t g = 0; g < G; ++g) {
      __m256d are = _mm256_mul_pd(vr[g][ii], one);
      __m256d aim = _mm256_mul_pd(vi[g][ii], one);
      for (uint32_t k = ii + 1; k < L; ++k) {  // acc -= x_k conj(l_k,ii)
        are = _mm256_fnmadd_pd(vr[g][k], lr[g][k * L + ii], are);
        are = _mm256_fnmadd_pd(vi[g][k], li[g][k * L + ii], are);
        aim = _mm256_fnmadd_pd(vi[g][k], lr[g][k * L + ii], aim);
        aim = _mm256_fmadd_pd(vr[g][k], li[g][k * L + ii], aim);
      }
      vr[g][ii] = lanes_div(lanes_round(are), lr[g][ii * L + ii]);
      vi[g][ii] = lanes_div(lanes_round(aim), lr[g][ii * L + ii]);
    }
  }
}

template <uint32_t L>
__attribute__((target("avx2,fma"))) void factor_lanes(const cq15* h,
                                                     cq15 sigma, cq15* l,
                                                     uint32_t n_b,
                                                     uint32_t groups) {
  const size_t h_stride = static_cast<size_t>(n_b) * L;
  const __m256d sig = _mm256_set1_pd(sigma.re);
  __m256d hr[kMaxBeams * L], hi[kMaxBeams * L];
  __m256d gr[L * L], gi[L * L], lr[L * L], li[L * L];
  for (uint32_t grp = 0; grp < groups; ++grp) {
    lanes_gather(h + 4 * grp * h_stride, h_stride, n_b * L, hr, hi);
    gram_lanes<L>(hr, hi, sig, n_b, gr, gi);
    chol_lanes<L>(gr, gi, lr, li);
    lanes_scatter(lr, li, L * L, l + 4 * grp * L * L, L * L);
  }
}

// G consecutive groups: the matched filter of each, then their
// substitutions stepped together.
template <uint32_t L, uint32_t G>
PP_LANES void solve_groups(const cq15* h, const cq15* l, const cq15* y,
                           cq15* x, uint32_t n_b) {
  const size_t h_stride = static_cast<size_t>(n_b) * L;
  __m256d lr[G][L * L], li[G][L * L], vr[G][L], vi[G][L];
  for (uint32_t g = 0; g < G; ++g) {
    __m256d hr[kMaxBeams * L], hi[kMaxBeams * L];
    __m256d yr[kMaxBeams], yi[kMaxBeams];
    lanes_gather(h + 4 * g * h_stride, h_stride, n_b * L, hr, hi);
    lanes_gather(y + 4 * static_cast<size_t>(g) * n_b, n_b, n_b, yr, yi);
    lanes_gather(l + 4 * g * L * L, L * L, L * L, lr[g], li[g]);
    mf_lanes<L>(hr, hi, yr, yi, n_b, vr[g], vi[g]);
  }
  subst_lanes<L, G>(lr, li, vr, vi);
  for (uint32_t g = 0; g < G; ++g) {
    lanes_scatter(vr[g], vi[g], L, x + 4 * g * L, L);
  }
}

template <uint32_t L>
__attribute__((target("avx2,fma"))) void solve_lanes(const cq15* h,
                                                    const cq15* l,
                                                    const cq15* y, cq15* x,
                                                    uint32_t n_b,
                                                    uint32_t groups) {
  const size_t h_stride = static_cast<size_t>(n_b) * L;
  uint32_t grp = 0;
  for (; grp + 2 <= groups; grp += 2) {
    solve_groups<L, 2>(h + 4 * grp * h_stride, l + 4 * grp * L * L,
                       y + 4 * static_cast<size_t>(grp) * n_b,
                       x + 4 * grp * L, n_b);
  }
  if (grp < groups) {
    solve_groups<L, 1>(h + 4 * grp * h_stride, l + 4 * grp * L * L,
                       y + 4 * static_cast<size_t>(grp) * n_b,
                       x + 4 * grp * L, n_b);
  }
}

// Named load/store helpers: lambdas would not inherit the enclosing
// function's target("avx2") attribute and fail to inline.
__attribute__((target("avx2"))) inline __m256i ld256(const cq15* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void st256(cq15* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// 8 packed complex Q1.15 multiplies: exact widened 32-bit cross products,
// +2^14, >>15, saturating pack - the same value chain as common::cmul.
// The single wrap case (imag sum = +2^31, only when both operands are
// {-0x8000, -0x8000}) is patched with a branchless blend to the scalar
// result {0, 0x7fff}; every other sum fits an int32 (see common::cmul).
__attribute__((target("avx2"))) inline __m256i cmul8(__m256i a, __m256i b) {
  const __m256i a_re = _mm256_srai_epi32(_mm256_slli_epi32(a, 16), 16);
  const __m256i a_im = _mm256_srai_epi32(a, 16);
  const __m256i b_re = _mm256_srai_epi32(_mm256_slli_epi32(b, 16), 16);
  const __m256i b_im = _mm256_srai_epi32(b, 16);
  __m256i rr = _mm256_sub_epi32(_mm256_mullo_epi32(a_re, b_re),
                                _mm256_mullo_epi32(a_im, b_im));
  __m256i ii = _mm256_add_epi32(_mm256_mullo_epi32(a_re, b_im),
                                _mm256_mullo_epi32(a_im, b_re));
  const __m256i half = _mm256_set1_epi32(1 << 14);
  rr = _mm256_srai_epi32(_mm256_add_epi32(rr, half), 15);
  ii = _mm256_srai_epi32(_mm256_add_epi32(ii, half), 15);
  // packs gives [rr0..3, ii0..3] int16 per 128-bit lane (saturating, i.e.
  // sat16); re-interleave to the packed {re, im} layout.
  const __m256i packed = _mm256_packs_epi32(rr, ii);
  const __m256i interleave = _mm256_setr_epi8(
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,  //
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
  const __m256i res = _mm256_shuffle_epi8(packed, interleave);
  const __m256i min_min = _mm256_set1_epi32(static_cast<int>(0x80008000u));
  const __m256i corner = _mm256_and_si256(_mm256_cmpeq_epi32(a, min_min),
                                          _mm256_cmpeq_epi32(b, min_min));
  return _mm256_blendv_epi8(res, _mm256_set1_epi32(0x7fff0000), corner);
}

// 8 packed -j rotations: {re, im} -> {im, sat16(-re)} (common::cmul_mj).
__attribute__((target("avx2"))) inline __m256i cmul_mj8(__m256i a) {
  const __m256i swap = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,  //
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i swapped = _mm256_shuffle_epi8(a, swap);
  const __m256i negated = _mm256_subs_epi16(_mm256_setzero_si256(), swapped);
  return _mm256_blend_epi16(swapped, negated, 0xAA);
}

__attribute__((target("avx2"))) uint32_t cmul_double_avx2(const cq15* y,
                                                          cq15 x, cq15* out,
                                                          uint32_t n) {
  const uint32_t n8 = n & ~7u;
  const __m256i xv =
      _mm256_set1_epi32(static_cast<int>(common::pack_cq15(x)));
  for (uint32_t i = 0; i < n8; i += 8) {
    const __m256i yv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i t = cmul8(yv, xv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_adds_epi16(t, t));
  }
  return n8;
}

// Eight radix-4 DIF butterflies, port j of each in lanes x[j]: 1/4
// pre-scale (per-lane arithmetic shift == common::cquarter), saturating
// sums, -j rotation, then the stage twiddles on outputs 1..3 unless the
// stage is the final one (tw1 == nullptr).  Outputs replace x.
__attribute__((target("avx2"))) inline void radix4x8(__m256i x[4],
                                                    const cq15* tw1,
                                                    const cq15* tw2,
                                                    const cq15* tw3) {
  const __m256i x0 = _mm256_srai_epi16(x[0], 2);
  const __m256i x1 = _mm256_srai_epi16(x[1], 2);
  const __m256i x2 = _mm256_srai_epi16(x[2], 2);
  const __m256i x3 = _mm256_srai_epi16(x[3], 2);
  const __m256i a = _mm256_adds_epi16(x0, x2);
  const __m256i c = _mm256_subs_epi16(x0, x2);
  const __m256i b = _mm256_adds_epi16(x1, x3);
  const __m256i dj = cmul_mj8(_mm256_subs_epi16(x1, x3));
  x[0] = _mm256_adds_epi16(a, b);
  x[1] = _mm256_adds_epi16(c, dj);
  x[2] = _mm256_subs_epi16(a, b);
  x[3] = _mm256_subs_epi16(c, dj);
  if (tw1 != nullptr) {
    x[1] = cmul8(x[1], ld256(tw1));
    x[2] = cmul8(x[2], ld256(tw2));
    x[3] = cmul8(x[3], ld256(tw3));
  }
}

__attribute__((target("avx2"))) uint32_t butterfly_avx2(cq15* p0, uint32_t d,
                                                        const cq15* tw1,
                                                        const cq15* tw2,
                                                        const cq15* tw3,
                                                        uint32_t len) {
  const uint32_t n8 = len & ~7u;
  for (uint32_t i = 0; i < n8; i += 8) {
    __m256i x[4];
    for (uint32_t j = 0; j < 4; ++j) x[j] = ld256(p0 + j * d + i);
    radix4x8(x, tw1 + i, tw2 + i, tw3 + i);
    for (uint32_t j = 0; j < 4; ++j) st256(p0 + j * d + i, x[j]);
  }
  return n8;
}

// Distance-4 stage: a group of four butterflies spans 16 elements (port j
// of butterfly t at 4j + t), so two groups fill one vector - port j of the
// pair is two 128-bit halves, 16 elements apart.
__attribute__((target("avx2"))) uint32_t butterfly4_avx2(cq15* p0,
                                                         const cq15* tw1,
                                                         const cq15* tw2,
                                                         const cq15* tw3,
                                                         uint32_t len) {
  const uint32_t n8 = len & ~7u;
  for (uint32_t i = 0; i < n8; i += 8) {
    cq15* p = p0 + 4 * i;
    __m256i x[4];
    for (uint32_t j = 0; j < 4; ++j) {
      x[j] = _mm256_inserti128_si256(
          _mm256_castsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4 * j))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 + 4 * j)),
          1);
    }
    radix4x8(x, tw1 + i, tw2 + i, tw3 + i);
    for (uint32_t j = 0; j < 4; ++j) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 4 * j),
                       _mm256_castsi256_si128(x[j]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 16 + 4 * j),
                       _mm256_extracti128_si256(x[j], 1));
    }
  }
  return n8;
}

// Final stage (distance 1, no twiddles): butterfly g reads buf[4g..4g+3]
// and writes output m to out[rev[4g + m]].  Eight butterflies' 32
// contiguous elements are transposed so each vector holds one port; the
// lanes then hold butterflies in the order kLane, and the digit-reversed
// stores are scalar.
__attribute__((target("avx2"))) uint32_t butterfly_last_avx2(
    const cq15* buf, cq15* out, const uint32_t* rev, uint32_t len) {
  static constexpr uint32_t kLane[8] = {0, 2, 4, 6, 1, 3, 5, 7};
  const uint32_t n8 = len & ~7u;
  for (uint32_t i = 0; i < n8; i += 8) {
    const cq15* p = buf + 4 * i;
    const __m256i r0 = ld256(p), r1 = ld256(p + 8);
    const __m256i r2 = ld256(p + 16), r3 = ld256(p + 24);
    const __m256i t0 = _mm256_unpacklo_epi32(r0, r1);
    const __m256i t1 = _mm256_unpackhi_epi32(r0, r1);
    const __m256i t2 = _mm256_unpacklo_epi32(r2, r3);
    const __m256i t3 = _mm256_unpackhi_epi32(r2, r3);
    __m256i x[4] = {_mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
                    _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3)};
    radix4x8(x, nullptr, nullptr, nullptr);
    alignas(32) uint32_t v[4][8];
    for (uint32_t m = 0; m < 4; ++m) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(v[m]), x[m]);
    }
    const uint32_t* rv = rev + 4 * i;
    for (uint32_t lane = 0; lane < 8; ++lane) {
      const uint32_t b = 4 * kLane[lane];
      for (uint32_t m = 0; m < 4; ++m) {
        out[rv[b + m]] = common::unpack_cq15(v[m][lane]);
      }
    }
  }
  return n8;
}

}  // namespace

bool simd_available() { return avx2_supported(); }
const char* simd_isa() { return avx2_supported() ? "avx2" : "scalar"; }

uint32_t cmul_double_prefix(const cq15* y, cq15 x, cq15* out, uint32_t n) {
  if (!avx2_supported()) return 0;
  return cmul_double_avx2(y, x, out, n);
}

uint32_t butterfly_prefix(cq15* p0, uint32_t d, const cq15* tw1,
                          const cq15* tw2, const cq15* tw3, uint32_t len) {
  if (!avx2_supported() || d < 8) return 0;
  return butterfly_avx2(p0, d, tw1, tw2, tw3, len);
}

uint32_t butterfly4_prefix(cq15* p0, const cq15* tw1, const cq15* tw2,
                           const cq15* tw3, uint32_t len) {
  if (!avx2_supported()) return 0;
  return butterfly4_avx2(p0, tw1, tw2, tw3, len);
}

uint32_t butterfly_last_prefix(const cq15* buf, cq15* out, const uint32_t* rev,
                               uint32_t len) {
  if (!avx2_supported()) return 0;
  return butterfly_last_avx2(buf, out, rev, len);
}

uint32_t quantize_prefix(const std::complex<double>* x, double scale, cq15* q,
                         uint32_t n) {
  if (!avx2_supported()) return 0;
  return quantize_avx2(x, scale, q, n);
}

uint32_t mmm_cols_prefix(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
                         uint32_t p, uint32_t rows) {
  if (!lanes_supported() || k_dim > kMaxMmmK) return 0;
  return mmm_cols_lanes(a, b, c, k_dim, p, rows);
}

uint32_t lmmse_factor_prefix(const cq15* h, cq15 sigma, cq15* l, uint32_t n_b,
                             uint32_t n_l, uint32_t n_sc) {
  if (!lanes_supported() || n_b > kMaxBeams) return 0;
  const uint32_t groups = n_sc / 4;
  switch (n_l) {
    case 1: factor_lanes<1>(h, sigma, l, n_b, groups); break;
    case 2: factor_lanes<2>(h, sigma, l, n_b, groups); break;
    case 3: factor_lanes<3>(h, sigma, l, n_b, groups); break;
    case 4: factor_lanes<4>(h, sigma, l, n_b, groups); break;
    default: return 0;
  }
  return 4 * groups;
}

uint32_t lmmse_solve_prefix(const cq15* h, const cq15* l, const cq15* y,
                            cq15* x, uint32_t n_b, uint32_t n_l,
                            uint32_t n_sc) {
  if (!lanes_supported() || n_b > kMaxBeams) return 0;
  const uint32_t groups = n_sc / 4;
  switch (n_l) {
    case 1: solve_lanes<1>(h, l, y, x, n_b, groups); break;
    case 2: solve_lanes<2>(h, l, y, x, n_b, groups); break;
    case 3: solve_lanes<3>(h, l, y, x, n_b, groups); break;
    case 4: solve_lanes<4>(h, l, y, x, n_b, groups); break;
    default: return 0;
  }
  return 4 * groups;
}

#else

// The vector paths are x86-only.  Elsewhere every entry point processes 0
// elements and the callers' scalar loops do all the work, with the same
// bits.
bool simd_available() { return false; }
const char* simd_isa() { return "scalar"; }

uint32_t cmul_double_prefix(const cq15*, cq15, cq15*, uint32_t) { return 0; }

uint32_t butterfly_prefix(cq15*, uint32_t, const cq15*, const cq15*,
                          const cq15*, uint32_t) {
  return 0;
}

uint32_t butterfly4_prefix(cq15*, const cq15*, const cq15*, const cq15*,
                           uint32_t) {
  return 0;
}

uint32_t butterfly_last_prefix(const cq15*, cq15*, const uint32_t*,
                               uint32_t) {
  return 0;
}

uint32_t quantize_prefix(const std::complex<double>*, double, cq15*,
                         uint32_t) {
  return 0;
}

uint32_t mmm_cols_prefix(const cq15*, const cq15*, cq15*, uint32_t, uint32_t,
                         uint32_t) {
  return 0;
}

uint32_t lmmse_factor_prefix(const cq15*, cq15, cq15*, uint32_t, uint32_t,
                             uint32_t) {
  return 0;
}

uint32_t lmmse_solve_prefix(const cq15*, const cq15*, const cq15*, cq15*,
                            uint32_t, uint32_t, uint32_t) {
  return 0;
}

#endif

}  // namespace pp::fixed
