// Marshaling helpers for the fixed-point backends' workspace buffers.
//
// The sim and fixed host backends move data between the double-precision
// scenario domain and Q1.15 kernel inputs through the same two primitives:
// scale-then-saturate quantization and the inverse rescale.  They write
// caller-owned storage grown with common::ws_grow, so the per-slot
// marshaling reuses capacity after warm-up.
//
// Between two kernels the slot stays in Q1.15: Q15_rescale moves a
// producer's output to the consumer's block scale without leaving the
// integer domain.
#ifndef PUSCHPOOL_RUNTIME_WORKSPACE_H
#define PUSCHPOOL_RUNTIME_WORKSPACE_H

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/complex16.h"
#include "common/grid.h"
#include "fixed/simd.h"

namespace pp::runtime {

// Stage-to-stage block rescale of Q1.15 data: the value of
// to_cq15(to_cd(v) / from * to), i.e. dequantizing at the producer's scale
// `from` and quantizing again at the consumer's scale `to`.  Both scales
// must be powers of two (every preset stage scale is, and so is
// s_time/sqrt(N) for the power-of-4 FFT sizes); then every step of that
// double round-trip is exact, so it equals an integer shift by
// log2(to / from) with to_q15's rounding (half away from zero) and
// saturation - which is what runs (tests/test_workspace.cpp checks every
// int16 against the round-trip).
class Q15_rescale {
 public:
  Q15_rescale(double from, double to) {
    int e_from = 0, e_to = 0;
    PP_CHECK(from > 0 && to > 0 && std::frexp(from, &e_from) == 0.5 &&
                 std::frexp(to, &e_to) == 0.5,
             "Q15 hand-off scales must be powers of two");
    // |v| <= 2^15, so shifts beyond 17 places behave like 17: every
    // nonzero value saturates (left) or rounds to zero (right).
    shift_ = std::clamp(e_to - e_from, -17, 17);
  }

  int16_t operator()(int16_t v) const {
    const int32_t x = v;
    if (shift_ >= 0) return common::sat16(static_cast<int64_t>(x) << shift_);
    const int k = -shift_;
    const int32_t half = 1 << (k - 1);
    return static_cast<int16_t>(x >= 0 ? (x + half) >> k
                                       : -((half - x) >> k));
  }
  common::cq15 operator()(common::cq15 v) const {
    return {(*this)(v.re), (*this)(v.im)};
  }

 private:
  int shift_ = 0;
};

inline void rescale_into(const common::cq15* src, size_t n,
                         const Q15_rescale& rs, common::cq15* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = rs(src[i]);
}

inline void rescale_into(std::span<const common::cq15> src,
                         const Q15_rescale& rs,
                         std::vector<common::cq15>& dst) {
  common::ws_grow(dst, src.size());
  rescale_into(src.data(), src.size(), rs, dst.data());
}

// q[i] = to_cq15(x[i] * scale), the prefix through the vector quantizer
// where the host has one (bit-identical to to_cq15, fixed/simd.h).
inline void quantize_into(std::span<const std::complex<double>> x,
                          double scale, std::vector<common::cq15>& q) {
  common::ws_grow(q, x.size());
  const size_t done = fixed::quantize_prefix(
      x.data(), scale, q.data(), static_cast<uint32_t>(x.size()));
  for (size_t i = done; i < x.size(); ++i) {
    q[i] = common::to_cq15(x[i] * scale);
  }
}

// Pointer-range form: dequantize `n` elements starting at `q` (used on
// sub-ranges of batched kernel outputs without a temporary copy).
inline void dequantize_into(const common::cq15* q, size_t n, double scale,
                            std::vector<std::complex<double>>& x) {
  common::ws_grow(x, n);
  for (size_t i = 0; i < n; ++i) x[i] = common::to_cd(q[i]) / scale;
}

inline void dequantize_into(const std::vector<common::cq15>& q, double scale,
                            std::vector<std::complex<double>>& x) {
  dequantize_into(q.data(), q.size(), scale, x);
}

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_WORKSPACE_H
