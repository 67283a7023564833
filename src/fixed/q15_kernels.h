// Host-native Q1.15 kernels mirroring the simulated receive chain.
//
// Every function here reimplements the *functional* arithmetic of one
// simulated kernel (src/kernels/) on plain host memory: the same Q1.15/Q2.30
// operations from common/fixed_point.h and common/complex16.h, the same
// twiddle and rounding semantics, the same accumulation structure.  The
// simulated kernels separate functional math from timing tokens, so a host
// loop that replays the functional side produces bit-identical outputs -
// that is the contract runtime::Fixed_backend builds on (and
// tests/test_backend_fixed.cpp pins against the sim backend).
//
// All kernels are range-parameterized: the full-range call is the serial
// kernel, and disjoint sub-ranges can run on worker threads.  Except for the
// noise-estimate fold (see ne_partial), every output element is produced by
// exact integer arithmetic over its own inputs, so results are independent
// of how the range is partitioned.
#ifndef PUSCHPOOL_FIXED_Q15_KERNELS_H
#define PUSCHPOOL_FIXED_Q15_KERNELS_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/complex16.h"
#include "kernels/fft_plan.h"

namespace pp::fixed {

using common::cq15;

// ---- radix-4 DIF FFT ------------------------------------------------------

// Per-size FFT plan: the radix-4 geometry plus per-stage twiddle tables laid
// out in butterfly order, one contiguous array per rotated output port, so
// consecutive butterflies of one stage read consecutive twiddles (the layout
// the SIMD butterfly loads from).
struct Fft_plan {
  kernels::Fft_geom geom;
  // tw[k][m-1][g] = W_n^tw_exp(k, g, m) for stage k, butterfly g, output
  // port m in 1..3.  The last stage applies no twiddles and has no entry.
  std::vector<std::array<std::vector<cq15>, 3>> tw;
  // rev[i] = geom.digitrev(i): where the last stage stores output i.
  std::vector<uint32_t> rev;

  explicit Fft_plan(uint32_t n);
};

// Shared per-size plan, built on first use and cached for the process
// lifetime (same contract as common::twiddle_q15).
const Fft_plan& fft_plan(uint32_t n);

// One in-place stage over butterflies [g_begin, g_end): the radix-4 DIF
// butterfly of src/kernels/fft.cpp (1/4 input scaling, -j rotation, stage
// twiddles on outputs 1..3).  The final stage writes digit-reversed into
// `out` instead of back into `buf`.  Butterflies of one stage touch disjoint
// elements, so disjoint ranges may run concurrently; a barrier is required
// between stages.  With `simd`, every stage runs eight butterflies per
// vector (the two short-distance stages transpose across groups).
void fft_stage(const Fft_plan& plan, uint32_t k, cq15* buf, cq15* out,
               uint32_t g_begin, uint32_t g_end, bool simd);

// Full transform: clobbers `buf` (the caller's scratch) and writes the
// digit-reversed result to `out`.
void fft_transform(const Fft_plan& plan, cq15* buf, cq15* out, bool simd);

// ---- beamforming MMM ------------------------------------------------------

// c[i*p + q] = round(sum_k a[i*k_dim + k] * b[k*p + q]) for rows
// [i_begin, i_end): the wide-accumulator matrix multiply of
// src/kernels/mmm.cpp (the k-stagger there only reorders an exact int64
// sum).  With `simd`, groups of four output columns run in vector lanes
// over the whole row range (one staging of b per call, so pass many rows).
void mmm_rows(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
              uint32_t p, uint32_t i_begin, uint32_t i_end, bool simd = false);

// ---- channel estimate -----------------------------------------------------

// Block-LS channel estimate for sub-carriers [sc_begin, sc_end):
// h[(sc*n_b + b)*n_l + l] = 2 * y_sep[l][sc*n_b + b] * conj(pilot[l][sc]),
// the doubling folding the pilots' |x|^2 = 1/2 (src/kernels/che_ne.cpp).
void che_subcarriers(const std::vector<std::vector<cq15>>& y_sep,
                     const std::vector<std::vector<cq15>>& pilots, cq15* h,
                     uint32_t n_b, uint32_t n_l, uint32_t sc_begin,
                     uint32_t sc_end, bool simd);

// ---- noise estimate -------------------------------------------------------

// Sub-carrier block owned by core `idx` of `n_cores` under the sim kernels'
// ceil-chunk partition (che_ne.cpp block_of).
struct Sc_block {
  uint32_t lo, hi;
};
Sc_block sc_block(uint32_t n_sc, uint32_t n_cores, uint32_t idx);

// Q2.30 residual-power partial over sub-carriers [sc_begin, sc_end):
// sum_{sc,b} |y[sc*n_b+b] - round(sum_l h[(sc*n_b+b)*n_l+l] * pilot[l][sc])|^2.
// The sim NE folds one such partial per core into a uint32 word
// (contrib = uint32(max(0, partial >> 15)), summed mod 2^32), so the final
// estimate depends on the core-block partition: callers must compute one
// partial per simulated core block and fold exactly the same way.
int64_t ne_partial(const cq15* y, const cq15* h,
                   const std::vector<std::vector<cq15>>& pilots, uint32_t n_b,
                   uint32_t n_l, uint32_t sc_begin, uint32_t sc_end);

// ---- Gram + matched filter ------------------------------------------------

// Regularized Gramian and matched-filter rhs for sub-carriers
// [sc_begin, sc_end): g[(sc*n_l+i)*n_l+j] = round(sum_b h_b[j] conj(h_b[i]))
// (+ sigma on the diagonal, upper triangle mirrored conjugate) and
// rhs[sc*n_l+i] = round(sum_b y_b conj(h_b[i])), with h_b[l] =
// h[(sc*n_b+b)*n_l+l] (src/kernels/gram.cpp; n_l <= 8).
void gram_subcarriers(const cq15* h, const cq15* y, cq15 sigma, cq15* g,
                      cq15* rhs, uint32_t n_b, uint32_t n_l,
                      uint32_t sc_begin, uint32_t sc_end);

// ---- Cholesky + triangular solves -----------------------------------------

// Lower-triangular Cholesky factor of the n x n Hermitian matrix g
// (src/kernels/cholesky.cpp chol_single): Q2.30 diagonal accumulation with
// sqrt_q15, wide off-diagonal accumulation with complex-by-real div_q15.
// The upper triangle of l is zeroed.
void cholesky(const cq15* g, cq15* l, uint32_t n);

// Forward (L z = y) then backward (L^H x = z) substitution on the factor
// produced by cholesky() (src/kernels/cholesky.cpp Trisolve_batch); n <= 8.
void trisolve(const cq15* l, const cq15* y, cq15* x, uint32_t n);

// ---- per-sub-carrier LMMSE: factor once, solve per symbol -------------------

// A sub-carrier's regularized Gramian and its Cholesky factor depend only on
// its channel estimate and sigma, so a slot factors once and solves each
// data symbol against the kept factors.  Together the pair computes
// gram_subcarriers, cholesky and trisolve in sequence, value for value.
// With `simd`, groups of four sub-carriers run one per vector lane
// (n_l <= 4); every sub-carrier's integer value chain is unchanged, so the
// output is bit-identical either way and for any split of the range.

// For sub-carriers [sc_begin, sc_end): the Gramian of gram_subcarriers (h
// laid out as there, sigma on the diagonal), factored by cholesky() into
// l[sc*n_l*n_l ...] (upper triangle zeroed).
void lmmse_factor(const cq15* h, cq15 sigma, cq15* l, uint32_t n_b,
                  uint32_t n_l, uint32_t sc_begin, uint32_t sc_end, bool simd);

// For sub-carriers [sc_begin, sc_end): the matched-filter rhs of
// gram_subcarriers (beam row y[sc*n_b + b]), then trisolve() against the
// factor lmmse_factor wrote, into x[sc*n_l + l].
void lmmse_solve(const cq15* h, const cq15* l, const cq15* y, cq15* x,
                 uint32_t n_b, uint32_t n_l, uint32_t sc_begin,
                 uint32_t sc_end, bool simd);

}  // namespace pp::fixed

#endif  // PUSCHPOOL_FIXED_Q15_KERNELS_H
