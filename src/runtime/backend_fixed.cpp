// The Q1.15 chain's executor on the host: each stage runs the src/fixed/
// kernels on the backend's thread pool.  The chain skeleton
// (runtime/q15_chain.cpp) owns every quantization, hand-off and the
// epilogue; the executor calls its hand-offs from inside the worker tiles,
// so they run as parallel as the kernels they follow.
//
// Kernel scratch lives in the backend's workspaces (grow-then-stabilize):
// after the first slot of a shape, a run allocates nothing - the serving
// benches gate that under PP_COUNT_ALLOCS.
#include <algorithm>

#include "common/check.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "kernels/che_ne.h"
#include "runtime/backend_fixed.h"

namespace pp::runtime {

namespace {

using common::cq15;
using common::Thread_pool;

// Beamforming rows gathered per MMM call: enough to amortize the SIMD
// path's staging of the codebook, small enough to stay in L1.
constexpr uint32_t kMmmRowBlock = 64;

}  // namespace

bool Fixed_backend::simd_active() const {
  return simd_ && fixed::simd_available();
}

void Fixed_backend::fft_beamform(const Q15_chain& c,
                                 common::Ws_grid<cq15>& beams) {
  const auto& cfg = c.cfg;
  const uint32_t n = cfg.fft_size;
  const fixed::Fft_plan& plan = fixed::fft_plan(n);
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();
  const uint64_t n_fft = static_cast<uint64_t>(cfg.n_symb) * cfg.n_rx;

  // Spectra per (symbol, antenna) at the MMM input scale: row s * n_rx + r
  // of the workspace grid.  Every row is fully written by the FFT phase
  // before the MMM phase reads it (barrier in between).
  freq_.shape(n_fft, n);
  common::Counting_barrier bar(workers);
  pool_.run([&](uint32_t w) {
    Worker_ws& ws = fft_ws_[w];
    common::ws_grow(ws.buf, n);
    common::ws_grow(ws.fout, n);
    const auto [f0, f1] = Thread_pool::slice(n_fft, w, workers);
    for (uint64_t t = f0; t < f1; ++t) {
      const auto& x = c.sc.antenna_time(static_cast<uint32_t>(t / cfg.n_rx),
                                        static_cast<uint32_t>(t % cfg.n_rx));
      const uint32_t done =
          simd ? fixed::quantize_prefix(x.data(), c.s_time, ws.buf.data(), n)
               : 0;
      for (uint32_t i = done; i < n; ++i) {
        ws.buf[i] = common::to_cq15(x[i] * c.s_time);
      }
      fixed::fft_transform(plan, ws.buf.data(), ws.fout.data(), simd);
      rescale_into(ws.fout.data(), n, c.to_grid, freq_.row(t).data());
    }
    bar.arrive_and_wait();

    // Beamforming: blocks of (symbol, sub-carrier) rows of the MMM - gather
    // the sub-carrier rows across antennas, exact MAC against the codebook
    // straight into the beam grid.  Element-for-element the arithmetic of
    // the sim backend's whole-matrix MMM.
    common::ws_grow(ws.aq, static_cast<size_t>(kMmmRowBlock) * cfg.n_rx);
    const auto [r0, r1] =
        Thread_pool::slice(static_cast<uint64_t>(cfg.n_symb) * n, w, workers);
    for (uint64_t item = r0; item < r1;) {
      const uint32_t s = static_cast<uint32_t>(item / n);
      const uint32_t sc0 = static_cast<uint32_t>(item % n);
      const uint32_t rows = static_cast<uint32_t>(
          std::min<uint64_t>({kMmmRowBlock, n - sc0, r1 - item}));
      for (uint32_t r = 0; r < cfg.n_rx; ++r) {
        const cq15* f =
            freq_.row(static_cast<size_t>(s) * cfg.n_rx + r).data();
        for (uint32_t i = 0; i < rows; ++i) {
          ws.aq[static_cast<size_t>(i) * cfg.n_rx + r] = f[sc0 + i];
        }
      }
      fixed::mmm_rows(ws.aq.data(), c.ws.bq.data(),
                      beams.row(s).data() + static_cast<size_t>(sc0) *
                                                cfg.n_beams,
                      cfg.n_rx, cfg.n_beams, 0, rows, simd);
      item += rows;
    }
  });
}

void Fixed_backend::che(const Q15_chain& c) {
  const uint32_t n = c.cfg.fft_size;
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();
  common::ws_grow(h_q_, static_cast<size_t>(n) * c.cfg.n_beams * c.cfg.n_ue);
  pool_.run([&](uint32_t w) {
    const auto [lo, hi] = Thread_pool::slice(n, w, workers);
    fixed::che_subcarriers(c.ws.y_sep, c.ws.pilots, h_q_.data(),
                           c.cfg.n_beams, c.cfg.n_ue,
                           static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(hi), simd);
    c.hand_on_che(h_q_.data(), static_cast<uint32_t>(lo),
                  static_cast<uint32_t>(hi));
  });
}

double Fixed_backend::ne(const Q15_chain& c) {
  // The sim NE folds one uint32 contribution per core block, so the
  // estimate depends on the *simulated* partition: replay exactly that
  // many blocks regardless of the host worker count.
  const uint32_t n = c.cfg.fft_size;
  common::ws_grow(contribs_, c.ne_cores);
  pool_.parallel_for(c.ne_cores, [&](uint64_t idx) {
    const fixed::Sc_block blk =
        fixed::sc_block(n, c.ne_cores, static_cast<uint32_t>(idx));
    const int64_t partial = fixed::ne_partial(
        c.ws.y_est.data(), c.ws.h_est.data(), c.ws.pilots, c.cfg.n_beams,
        c.cfg.n_ue, blk.lo, blk.hi);
    contribs_[idx] = static_cast<uint32_t>(
        std::max<int64_t>(0, partial >> common::q15_frac_bits));
  });
  uint32_t raw = 0;  // wraps mod 2^32 like the simulated amo_add word
  for (uint32_t i = 0; i < c.ne_cores; ++i) raw += contribs_[i];
  return kernels::ne_sigma2(raw, n, c.cfg.n_beams);
}

void Fixed_backend::mimo(const Q15_chain& c,
                         const common::Ws_grid<cq15>& beams, uint32_t s0,
                         double sigma2_hat) {
  const uint32_t n = c.cfg.fft_size;
  const uint32_t n_b = c.cfg.n_beams;
  const uint32_t n_l = c.cfg.n_ue;
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();
  // A sub-carrier's regularized Gramian and its Cholesky factor depend only
  // on ws.h_gram and sigma2_hat, which the slot fixes before its first data
  // batch: that batch factors every sub-carrier once, and every batch of the
  // slot solves against the kept factors.
  if (s0 == c.cfg.n_pilot_symb) {
    const cq15 sigma{common::to_q15(sigma2_hat), 0};
    common::ws_grow(chol_, static_cast<size_t>(n) * n_l * n_l);
    pool_.run([&](uint32_t w) {
      const auto [lo, hi] = Thread_pool::slice(n, w, workers);
      fixed::lmmse_factor(c.ws.h_gram.data(), sigma, chol_.data(), n_b, n_l,
                          static_cast<uint32_t>(lo), static_cast<uint32_t>(hi),
                          simd);
    });
  }
  // (symbol-in-batch, sub-carrier) problems in contiguous sub-carrier runs
  // per worker: hand the beam rows on at the matched filter's scale, then
  // the matched filter and both substitutions per sub-carrier.
  pool_.run([&](uint32_t w) {
    const auto [i0, i1] =
        Thread_pool::slice(static_cast<uint64_t>(c.batch) * n, w, workers);
    for (uint64_t item = i0; item < i1;) {
      const uint32_t b = static_cast<uint32_t>(item / n);
      const uint32_t lo = static_cast<uint32_t>(item % n);
      const uint32_t hi =
          static_cast<uint32_t>(std::min<uint64_t>(n, lo + (i1 - item)));
      c.hand_on_rhs(beams, s0, b, lo, hi);
      fixed::lmmse_solve(c.ws.h_gram.data(), chol_.data(),
                         c.ws.y_rhs.row(b).data(),
                         c.ws.xs.data() + static_cast<size_t>(b) * n * n_l,
                         n_b, n_l, lo, hi, simd);
      item += hi - lo;
    }
  });
}

size_t Fixed_backend::workspace_bytes() const {
  size_t b = Q15_backend::workspace_bytes() + freq_.footprint_bytes() +
             (h_q_.capacity() + chol_.capacity()) * sizeof(cq15) +
             contribs_.capacity() * sizeof(uint32_t);
  for (const auto& ws : fft_ws_) b += ws.footprint_bytes();
  return b;
}

}  // namespace pp::runtime
