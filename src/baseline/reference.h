// Double-precision golden models used to verify the simulated fixed-point
// kernels and the PHY chain: DFT, matrix multiply, Cholesky decomposition,
// triangular solves and the LMMSE equalizer.
//
// Each model is built from deterministic *tiled sub-kernels* (declared
// below): a whole-problem call is exactly the full-range tile, and a tile's
// arithmetic depends only on the tile bounds and the input data - never on
// which thread runs it or in what order disjoint tiles complete.  That is
// the contract runtime::Parallel_backend relies on to split the host chain
// across workers while staying bit-identical to the serial path (the same
// decomposition the paper applies to the fixed-point kernels in §IV).
#ifndef PUSCHPOOL_BASELINE_REFERENCE_H
#define PUSCHPOOL_BASELINE_REFERENCE_H

#include <complex>
#include <span>
#include <vector>

namespace pp::ref {

using cd = std::complex<double>;

// Forward DFT scaled by 1/N (matches the fixed-point kernels' 1/4-per-stage
// scaling).
std::vector<cd> dft(const std::vector<cd>& x);

// Fast radix-2 FFT (power-of-two sizes), scaled by 1/N like dft().
std::vector<cd> fft(const std::vector<cd>& x);

// fft() writing into a caller-owned output vector (reusing its capacity):
// y is assigned from x, then transformed in place.  Bit-identical to
// fft(); the workspace form the backends' hot paths use.
void fft_into(const std::vector<cd>& x, std::vector<cd>& y);

// Inverse of fft(): unscaled accumulation (fft(ifft(x)) == x).
std::vector<cd> ifft(const std::vector<cd>& x);

// ifft() in place on a caller-owned buffer; bit-identical to ifft().
void ifft_inplace(std::vector<cd>& a);

// C (m x p) = A (m x k) * B (k x p), row-major.
std::vector<cd> matmul(const std::vector<cd>& a, const std::vector<cd>& b,
                       size_t m, size_t k, size_t p);

// C = A^H * A (k x k) for A (m x k), row-major.
std::vector<cd> gram(const std::vector<cd>& a, size_t m, size_t k);

// Lower-triangular L (row-major, n x n) with L L^H = G.  G must be Hermitian
// positive definite.
std::vector<cd> cholesky(const std::vector<cd>& g, size_t n);

// Solve L z = y (forward substitution), L lower-triangular.
std::vector<cd> forward_solve(const std::vector<cd>& l,
                              const std::vector<cd>& y, size_t n);

// Solve L^H x = z (backward substitution).
std::vector<cd> backward_solve(const std::vector<cd>& l,
                               const std::vector<cd>& z, size_t n);

// LMMSE estimate x = (H^H H + sigma2 I)^-1 H^H y for H (m x n) row-major,
// computed via Cholesky + two triangular solves (the paper's recipe, eq. 2).
std::vector<cd> lmmse(const std::vector<cd>& h, const std::vector<cd>& y,
                      size_t m, size_t n, double sigma2);

// ---- workspace (_into) forms ----------------------------------------------
//
// Allocation-free variants of the solver chain: outputs land in
// caller-owned spans, intermediates in a caller-owned Lmmse_ws whose
// vectors grow geometrically and then stabilize (common::ws_grow).  Each
// _into runs the exact arithmetic of its returning form - the returning
// forms are thin wrappers - so results are bit-identical; only where the
// bytes live changes.

// Reusable intermediates for lmmse_into: the regularized Gram matrix, its
// Cholesky factor, the matched-filter right-hand side and the forward
// substitution result.
struct Lmmse_ws {
  std::vector<cd> g;
  std::vector<cd> l;
  std::vector<cd> rhs;
  std::vector<cd> z;

  size_t footprint_bytes() const {
    return (g.capacity() + l.capacity() + rhs.capacity() + z.capacity()) *
           sizeof(cd);
  }
};

// cholesky() into a pre-sized span (l.size() == n*n); the strict upper
// triangle is zero-filled exactly like the returning form.
void cholesky_into(std::span<const cd> g, size_t n, std::span<cd> l);

// forward_solve()/backward_solve() into pre-sized spans (size n).
void forward_solve_into(std::span<const cd> l, std::span<const cd> y,
                        size_t n, std::span<cd> z);
void backward_solve_into(std::span<const cd> l, std::span<const cd> z,
                         size_t n, std::span<cd> x);

// lmmse() into a pre-sized span (x.size() == n), intermediates in ws.
void lmmse_into(std::span<const cd> h, std::span<const cd> y, size_t m,
                size_t n, double sigma2, Lmmse_ws& ws, std::span<cd> x);

// ---- tiled sub-kernels ----------------------------------------------------
//
// The work-splitting surface: fft() is bit-reverse + one fft_stage_blocks()
// sweep per butterfly stage + fft_scale(); matmul()/gram() are the full row
// range of matmul_rows()/gram_rows().  Tiles write disjoint outputs, so any
// partition of the index space - including a multi-threaded one - produces
// bits identical to the monolithic call.

// Bit-reversal permutation of `a` (power-of-two size), the layout every
// butterfly stage assumes.
void fft_bit_reverse(std::vector<cd>& a);

// One length-`len` butterfly stage over blocks [block_begin, block_end) of
// the size(a)/len independent blocks (block i spans a[i*len .. (i+1)*len)).
// Stages must run in increasing `len` order with all blocks of a stage
// complete before the next stage starts.  No backend splits a host FFT
// across workers; tests pin that any block ranges give fft()'s bits.
void fft_stage_blocks(std::vector<cd>& a, size_t len, bool inverse,
                      size_t block_begin, size_t block_end);

// The forward FFT's final 1/N normalization over elements [begin, end).
void fft_scale(std::vector<cd>& a, size_t begin, size_t end);

// Rows [row_begin, row_end) of C = A * B (shapes as in matmul()).  C must
// be pre-sized to m*p; a tile only writes its own rows.  Spans, so tiles
// can target rows of a flat workspace grid as well as whole vectors.
void matmul_rows(std::span<const cd> a, std::span<const cd> b,
                 std::span<cd> c, size_t m, size_t k, size_t p,
                 size_t row_begin, size_t row_end);

// Rows [row_begin, row_end) of G = A^H A (shapes as in gram()).  G must be
// pre-sized to k*k.
void gram_rows(std::span<const cd> a, std::span<cd> g, size_t m,
               size_t k, size_t row_begin, size_t row_end);

// ---- error metrics --------------------------------------------------------

// Signal-to-quantization-noise ratio (dB) of `got` vs reference `want`.
double sqnr_db(const std::vector<cd>& want, const std::vector<cd>& got);

}  // namespace pp::ref

#endif  // PUSCHPOOL_BASELINE_REFERENCE_H
