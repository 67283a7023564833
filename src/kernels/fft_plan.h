// Radix-4 decimation-in-frequency FFT geometry (paper §V-A).
//
// For an N = 4^S point FFT, stage k (k = 0..S-1) processes butterflies of
// distance d(k) = N / 4^(k+1).  Butterfly g combines the four elements
// base(g) + j*d(k), scales by 1/4 (fixed-point), applies twiddles
// W_N^(m*q*4^k) and writes back in place; the final result is in base-4
// digit-reversed order.
//
// Parallel mapping: each core owns 4 butterflies per stage, i.e. 16 elements,
// held in its 4 local banks as 4 rows of 4 (the paper's "folded" layout,
// Fig. 5), so all butterfly loads are 1-cycle local accesses.  Stage-k
// outputs are stored directly into the folded layout of the consuming core
// for stage k+1.  Only the cores of one stage-k sub-FFT exchange data, so
// barriers shrink 4x per stage and disappear once a sub-FFT fits in a core.
#ifndef PUSCHPOOL_KERNELS_FFT_PLAN_H
#define PUSCHPOOL_KERNELS_FFT_PLAN_H

#include <complex>
#include <cstdint>

#include "common/check.h"
#include "common/complex16.h"
#include "common/twiddle.h"

namespace pp::kernels {

struct Fft_geom {
  uint32_t n = 0;       // FFT size, a power of 4, >= 16
  uint32_t stages = 0;  // log4(n)

  static bool valid_size(uint32_t n) {
    if (n < 16) return false;
    while (n > 1) {
      if (n % 4 != 0) return false;
      n /= 4;
    }
    return true;
  }

  explicit Fft_geom(uint32_t size) : n(size) {
    PP_CHECK(valid_size(size), "FFT size must be a power of 4, >= 16");
    for (uint32_t v = size; v > 1; v /= 4) ++stages;
  }

  // Cores needed by the parallel mapping (4 butterflies per core).
  uint32_t cores() const { return n / 16; }

  // Butterfly distance at stage k.
  uint32_t d(uint32_t k) const { return n >> (2 * (k + 1)); }
  // log2 of d(k) (k < stages): index math below is shifts and masks.
  uint32_t d_log2(uint32_t k) const { return 2 * (stages - 1 - k); }

  // First input element of butterfly g at stage k:
  // (g / d) * 4d + g % d.
  uint32_t base(uint32_t k, uint32_t g) const {
    const uint32_t s = d_log2(k);
    return ((g >> s) << (s + 2)) | (g & ((1u << s) - 1));
  }

  // Logical index of input/output j (0..3) of butterfly g at stage k.
  uint32_t elem(uint32_t k, uint32_t g, uint32_t j) const {
    return base(k, g) + j * d(k);
  }

  // Inverse of elem(): which (butterfly, port) handles logical index i at
  // stage k.
  struct Gj {
    uint32_t g, j;
  };
  Gj locate(uint32_t k, uint32_t i) const {
    // g = (i / 4d) * d + i % d, j = (i / d) % 4.
    const uint32_t s = d_log2(k);
    return {((i >> (s + 2)) << s) | (i & ((1u << s) - 1)), (i >> s) & 3};
  }

  // Owning core (within the FFT's core gang) and local slot (0..15) of
  // logical element i at stage k.  Slot s lives in local bank s%4, row s/4,
  // so one butterfly's four inputs share a row across the four banks.
  struct Cs {
    uint32_t core, slot;
  };
  Cs place(uint32_t k, uint32_t i) const {
    const Gj gj = locate(k, i);
    return {gj.g >> 2, ((gj.g & 3) << 2) | gj.j};
  }

  // Twiddle exponent (over W_n) applied to output m of butterfly g, stage k.
  uint32_t tw_exp(uint32_t k, uint32_t g, uint32_t m) const {
    return m * (g % d(k)) << (2 * k);
  }

  // Base-4 digit reversal of i (stages digits).
  uint32_t digitrev(uint32_t i) const {
    uint32_t r = 0, v = i;
    for (uint32_t s = 0; s < stages; ++s) {
      r = (r << 2) | (v & 3);
      v >>= 2;
    }
    return r;
  }

  // Cores per synchronization group after stage k: the cores of one stage-k
  // sub-FFT (they alone exchange data with stage k+1).
  uint32_t sync_group_cores(uint32_t k) const { return d(k) / 4; }

  // Twiddle factor W_n^e in Q15 (forward transform), served from the shared
  // thread-safe per-size table (common/twiddle.h).
  common::cq15 twiddle(uint32_t e) const {
    return common::twiddle_q15(n)[e % n];
  }
};

}  // namespace pp::kernels

#endif  // PUSCHPOOL_KERNELS_FFT_PLAN_H
