// Feature-detected SIMD variants of the hot Q1.15 inner loops.
//
// The vector paths are *bit-identical* to the scalar Q15 layer - they are an
// implementation detail, never a numerics change (pinned by
// tests/test_backend_fixed.cpp scalar/SIMD parity).  The mapping:
//
//   add_q15/sub_q15      saturating 16-bit adds (vpaddsw)
//   cquarter             per-lane arithmetic shift (vpsraw)
//   cmul                 widened 32-bit products, +2^14, >>15, saturating
//                        pack (the one wrap case - both operands
//                        {-0x8000,-0x8000} - is patched by a branchless
//                        blend to match the 64-bit scalar semantics)
//   cmul_mj              16-bit lane swap + saturating negate + blend
//   to_q15               the scalar's double ops per lane, truncation by
//                        vroundpd, saturation by a clamp
//
// The matrix kernels (beamforming MMM, per-sub-carrier LMMSE) carry their
// exact integer arithmetic in double lanes instead: every Q15 product and
// every Q2.30 sum they form is an integer below 2^53, so double add/mul/FMA
// are exact, floor((acc + 2^14) * 2^-15) is cacc::round(), and the Q15
// divide and square root are exact after truncation/floor (see simd.cpp).
//
// x86 code is compiled with per-function target("avx2"[,"fma"]) attributes
// and gated at run time by __builtin_cpu_supports, so the build needs no
// -mavx2 flag and the binary still runs on pre-AVX2 hosts.  Other ISAs have
// no vector path: every entry point below processes 0 elements there.
#ifndef PUSCHPOOL_FIXED_SIMD_H
#define PUSCHPOOL_FIXED_SIMD_H

#include <complex>
#include <cstdint>

#include "common/complex16.h"

namespace pp::fixed {

using common::cq15;

// True when a vector path exists on this machine (AVX2 detected at run
// time).  When false, the SIMD entry points below process 0 elements and
// the callers' scalar tails do all the work.
bool simd_available();

// "avx2" or "scalar" - what simd_available() resolved to (bench and banner
// reporting).
const char* simd_isa();

// out[i] = cadd(t, t) with t = cmul(y[i], x): the per-(sub-carrier, UE)
// CHE beam row (doubling folds the pilot |x|^2 = 1/2).  Processes a prefix
// of [0, n) and returns its length; the caller finishes the tail scalar.
uint32_t cmul_double_prefix(const cq15* y, cq15 x, cq15* out, uint32_t n);

// `len` consecutive radix-4 DIF butterflies at element distance d: port j of
// butterfly i lives at p0[i + j*d], twiddles for output port m at twm[i]
// (the Fft_plan per-stage layout).  Only non-final stages (twiddled, stored
// in place) are vectorized; requires d >= the vector width or processes 0.
// Returns the number of butterflies handled; the caller finishes scalar.
uint32_t butterfly_prefix(cq15* p0, uint32_t d, const cq15* tw1,
                          const cq15* tw2, const cq15* tw3, uint32_t len);

// The distance-4 (second to last) stage: butterflies [0, len) from a
// group-aligned start, butterfly g's port j at p0[16*(g/4) + g%4 + 4j];
// twiddles as above.  Handles whole pairs of groups; returns how many.
uint32_t butterfly4_prefix(cq15* p0, const cq15* tw1, const cq15* tw2,
                           const cq15* tw3, uint32_t len);

// The final stage (distance 1, untwiddled): butterfly g reads
// buf[4g..4g+3] and stores output m at out[rev[4g + m]] (the Fft_plan
// digit-reversal table).  Returns the number of butterflies handled.
uint32_t butterfly_last_prefix(const cq15* buf, cq15* out, const uint32_t* rev,
                               uint32_t len);

// q[i] = to_cq15(x[i] * scale) for a prefix of [0, n): the quantization of
// scenario samples into the FFT.  The same double operations in the same
// order as the scalar to_q15 (scale, widen, +-1/2, truncate, saturate), so
// the same bits.  Returns the prefix length; the caller finishes scalar.
uint32_t quantize_prefix(const std::complex<double>* x, double scale, cq15* q,
                         uint32_t n);

// Columns [0, returned) of the MMM c[i*p + q] = round(sum_k a[i*k_dim + k] *
// b[k*p + q]) for rows [0, rows), vector lanes across q (groups of four
// columns).  The caller finishes the remaining columns scalar.
uint32_t mmm_cols_prefix(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
                         uint32_t p, uint32_t rows);

// The LMMSE factor/solve pair (q15_kernels.h) with one sub-carrier per
// vector lane, over a prefix of [0, n_sc): h block at h[sc*n_b*n_l], factor
// at l[sc*n_l*n_l], beam row at y[sc*n_b], solution at x[sc*n_l].  Each
// handles whole groups of four sub-carriers when n_l <= 4 and n_b <= 64
// (else 0) and returns how many; the caller finishes the tail scalar.
uint32_t lmmse_factor_prefix(const cq15* h, cq15 sigma, cq15* l, uint32_t n_b,
                             uint32_t n_l, uint32_t n_sc);
uint32_t lmmse_solve_prefix(const cq15* h, const cq15* l, const cq15* y,
                            cq15* x, uint32_t n_b, uint32_t n_l,
                            uint32_t n_sc);

}  // namespace pp::fixed

#endif  // PUSCHPOOL_FIXED_SIMD_H
