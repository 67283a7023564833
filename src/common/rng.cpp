// The normal transform of rng.h, scalar and in AVX2 lanes.
//
// Both paths run the same operations in the same order on every sample, so
// each lane's result is the scalar result bit for bit:
//   - the radius: u = (hi + 1/2) 2^-32 is split exactly into 2^k m with m in
//     [sqrt(1/2), sqrt(2)], and ln u = k ln 2 + ln m follows fdlibm's
//     e_log.c (s = f / (2 + f), f = m - 1, a degree-14 polynomial in s);
//   - the angle: the top two bits of lo + 2^29 pick a quadrant, the other
//     30 an offset of at most 1/8 turn, and fdlibm's k_sin.c / k_cos.c
//     polynomials give sin and cos of that offset;
//   - integers reach doubles only through exact conversions.
// This file is compiled with -ffp-contract=off and -fno-math-errno
// (CMakeLists.txt): no product is fused into a multiply-add, and sqrt is
// the correctly rounded instruction with no libm fallback.
#include "common/rng.h"

#include <bit>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PP_RNG_X86 1
#endif

namespace pp::common {

namespace {

using cd = std::complex<double>;

// e_log.c: ln(1 + f) = f - hfsq + s (hfsq + R(s^2)), ln 2 split so that
// k * kLn2Hi is exact.
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;

// k_sin.c and k_cos.c on [-pi/4, pi/4].
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

constexpr double kSqrt2 = 1.41421356237309504880;
// One 2^-32 turn in radians (2 pi scaled by a power of two: exact).
constexpr double kTurn = 6.28318530717958647692 * 0x1p-32;
// 2^29 - 1/2: subtracting it from the offset field centres it on zero.
constexpr double kHalfOctant = 0x1p29 - 0.5;

constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
constexpr uint64_t kOneBits = uint64_t{1023} << 52;
constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;

// -ln(2^k m) for m in [sqrt(1/2), sqrt(2)].
double neg_log(double m, double k) {
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f) - k * kLn2Hi;
}

double sin_kernel(double x) {
  const double z = x * x;
  const double v = z * x;
  const double r = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  return x + v * (kS1 + z * r);
}

double cos_kernel(double x) {
  const double z = x * x;
  const double r = z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  return w + (((1.0 - w) - hz) + z * r);
}

#if defined(PP_RNG_X86)

bool avx2_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

// a * b mod 2^64 per lane, from three 32 x 32 -> 64 products.
__attribute__((target("avx2"))) inline __m256i mul64(__m256i a, __m256i b,
                                                     __m256i b_hi) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// The double of a lane's integer below 2^52 (exact).
__attribute__((target("avx2"))) inline __m256d to_double(__m256i v) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000ll);  // 2^52
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, magic)),
                       _mm256_set1_pd(0x1p52));
}

// Horner in lanes: c[0] + x (c[1] + x (...)), the scalar kernels' order.
__attribute__((target("avx2"))) inline __m256d mul(__m256d a, __m256d b) {
  return _mm256_mul_pd(a, b);
}
__attribute__((target("avx2"))) inline __m256d add(__m256d a, __m256d b) {
  return _mm256_add_pd(a, b);
}
__attribute__((target("avx2"))) inline __m256d sub(__m256d a, __m256d b) {
  return _mm256_sub_pd(a, b);
}
__attribute__((target("avx2"))) inline __m256d bc(double v) {
  return _mm256_set1_pd(v);
}

// Normal_stream::add on a prefix of four-sample groups; returns the
// samples done.  Compiled for AVX2 without FMA.
__attribute__((target("avx2"))) size_t add_avx2(uint64_t key, uint64_t first,
                                                double amp, cd* out,
                                                size_t n) {
  const size_t done = n - n % 4;
  const __m256i c1 = _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ull));
  const __m256i c1_hi = _mm256_srli_epi64(c1, 32);
  const __m256i c2 = _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebull));
  const __m256i c2_hi = _mm256_srli_epi64(c2, 32);
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kGamma));
  const __m256i low32 = _mm256_set1_epi64x(0xffffffffll);
  const __m256i mant = _mm256_set1_epi64x(static_cast<long long>(kMantissa));
  const __m256i one_bits = _mm256_set1_epi64x(static_cast<long long>(kOneBits));
  const __m256i half_octant = _mm256_set1_epi64x(1ll << 29);
  const __m256i offset_mask = _mm256_set1_epi64x((1ll << 30) - 1);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d vamp = bc(amp);
  // derive_seed's pre-mix state of samples first .. first + 3.
  const uint64_t z0 = key + (first + 1) * kGamma;
  __m256i state = _mm256_set_epi64x(
      static_cast<long long>(z0 + 3 * kGamma),
      static_cast<long long>(z0 + 2 * kGamma),
      static_cast<long long>(z0 + kGamma), static_cast<long long>(z0));
  double* o = reinterpret_cast<double*>(out);
  for (size_t i = 0; i < done; i += 4) {
    __m256i h = state;
    state = _mm256_add_epi64(state, step);
    h = mul64(_mm256_xor_si256(h, _mm256_srli_epi64(h, 30)), c1, c1_hi);
    h = mul64(_mm256_xor_si256(h, _mm256_srli_epi64(h, 27)), c2, c2_hi);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 31));

    // Radius.
    const __m256d u =
        mul(add(to_double(_mm256_srli_epi64(h, 32)), bc(0.5)), bc(0x1p-32));
    const __m256i ub = _mm256_castpd_si256(u);
    __m256d k = sub(to_double(_mm256_srli_epi64(ub, 52)), bc(1023.0));
    __m256d m = _mm256_castsi256_pd(
        _mm256_or_si256(_mm256_and_si256(ub, mant), one_bits));
    const __m256d big = _mm256_cmp_pd(m, bc(kSqrt2), _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, mul(m, bc(0.5)), big);
    k = _mm256_blendv_pd(k, add(k, bc(1.0)), big);
    const __m256d f = sub(m, bc(1.0));
    const __m256d s = _mm256_div_pd(f, add(bc(2.0), f));
    const __m256d z = mul(s, s);
    const __m256d w = mul(z, z);
    const __m256d t1 =
        mul(w, add(bc(kLg2), mul(w, add(bc(kLg4), mul(w, bc(kLg6))))));
    const __m256d t2 = mul(
        z, add(bc(kLg1),
               mul(w, add(bc(kLg3), mul(w, add(bc(kLg5), mul(w, bc(kLg7))))))));
    const __m256d r = add(t2, t1);
    const __m256d hfsq = mul(mul(bc(0.5), f), f);
    const __m256d nl =
        sub(sub(sub(hfsq, add(mul(s, add(hfsq, r)), mul(k, bc(kLn2Lo)))), f),
            mul(k, bc(kLn2Hi)));
    const __m256d rad = _mm256_sqrt_pd(nl);

    // Angle.
    const __m256i t = _mm256_add_epi64(_mm256_and_si256(h, low32), half_octant);
    const __m256i q = _mm256_and_si256(_mm256_srli_epi64(t, 30),
                                       _mm256_set1_epi64x(3));
    const __m256d x = mul(
        sub(to_double(_mm256_and_si256(t, offset_mask)), bc(kHalfOctant)),
        bc(kTurn));
    const __m256d xx = mul(x, x);
    const __m256d sr = add(
        bc(kS2),
        mul(xx, add(bc(kS3),
                    mul(xx, add(bc(kS4), mul(xx, add(bc(kS5),
                                                     mul(xx, bc(kS6)))))))));
    const __m256d sn = add(x, mul(mul(xx, x), add(bc(kS1), mul(xx, sr))));
    const __m256d cr = mul(
        xx,
        add(bc(kC1),
            mul(xx,
                add(bc(kC2),
                    mul(xx, add(bc(kC3),
                                mul(xx, add(bc(kC4),
                                            mul(xx, add(bc(kC5),
                                                        mul(xx, bc(kC6))))))))))));
    const __m256d hz = mul(bc(0.5), xx);
    const __m256d cw = sub(bc(1.0), hz);
    const __m256d cs = add(cw, add(sub(sub(bc(1.0), cw), hz), mul(xx, cr)));

    // Quadrant: odd swaps sin and cos; cos is negated in quadrants 1 and 2,
    // sin in 2 and 3.
    const __m256d odd = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(q, one), one));
    const __m256i cneg = _mm256_slli_epi64(
        _mm256_and_si256(_mm256_xor_si256(q, _mm256_srli_epi64(q, 1)), one),
        63);
    const __m256i sneg = _mm256_slli_epi64(_mm256_and_si256(q, two), 62);
    const __m256d cq = _mm256_xor_pd(_mm256_blendv_pd(cs, sn, odd),
                                     _mm256_castsi256_pd(cneg));
    const __m256d sq = _mm256_xor_pd(_mm256_blendv_pd(sn, cs, odd),
                                     _mm256_castsi256_pd(sneg));
    const __m256d re = mul(vamp, mul(rad, cq));
    const __m256d im = mul(vamp, mul(rad, sq));

    // {re0..re3}, {im0..im3} -> {re0, im0, re1, im1}, {re2, im2, re3, im3}.
    const __m256d lo = _mm256_unpacklo_pd(re, im);
    const __m256d hi = _mm256_unpackhi_pd(re, im);
    double* dst = o + 2 * i;
    _mm256_storeu_pd(dst, add(_mm256_loadu_pd(dst),
                              _mm256_permute2f128_pd(lo, hi, 0x20)));
    _mm256_storeu_pd(dst + 4, add(_mm256_loadu_pd(dst + 4),
                                  _mm256_permute2f128_pd(lo, hi, 0x31)));
  }
  return done;
}

#endif

}  // namespace

cd Rng::cnormal_of(uint64_t bits) {
  // Radius: u in (0, 1) split into 2^k m, m in [sqrt(1/2), sqrt(2)].
  const double u = (static_cast<double>(bits >> 32) + 0.5) * 0x1p-32;
  const uint64_t ub = std::bit_cast<uint64_t>(u);
  double k = static_cast<double>(ub >> 52) - 1023.0;
  double m = std::bit_cast<double>((ub & kMantissa) | kOneBits);
  if (m > kSqrt2) {
    m = m * 0.5;
    k = k + 1.0;
  }
  const double rad = std::sqrt(neg_log(m, k));

  // Angle: (lo + 1/2) 2^-32 turns = q quarter turns + x radians, |x| <= pi/4.
  const uint32_t t = static_cast<uint32_t>(bits) + (uint32_t{1} << 29);
  const uint32_t q = t >> 30;
  const double x =
      (static_cast<double>(t & ((uint32_t{1} << 30) - 1)) - kHalfOctant) *
      kTurn;
  double c = cos_kernel(x);
  double s = sin_kernel(x);
  if (q & 1) std::swap(c, s);
  if ((q ^ (q >> 1)) & 1) c = -c;
  if (q & 2) s = -s;
  return {rad * c, rad * s};
}

void Normal_stream::add(uint64_t first, double amp, std::span<cd> out) const {
  size_t j = 0;
#if defined(PP_RNG_X86)
  if (avx2_supported()) j = add_avx2(key_, first, amp, out.data(), out.size());
#endif
  double* o = reinterpret_cast<double*>(out.data());
  for (; j < out.size(); ++j) {
    const cd z = at(first + j);
    o[2 * j] = o[2 * j] + amp * z.real();
    o[2 * j + 1] = o[2 * j + 1] + amp * z.imag();
  }
}

}  // namespace pp::common
