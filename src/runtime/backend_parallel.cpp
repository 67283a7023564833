// Functional slot execution on the double-precision host models, split
// across a worker pool with the paper's per-kernel core mapping (§IV).
//
// This file runs phy::golden_receive()'s stage sequence through the same
// range-parameterized sub-steps the serial receiver is built from
// (phy::che_rows / ne_terms / mimo_items and the ref:: tiled sub-kernels),
// so the two paths share one implementation of every stage's arithmetic.
// Every parallel region follows the same recipe: workers own
// statically-sliced disjoint output tiles (common::Thread_pool::slice), a
// tile's arithmetic is independent of the partition, and floating-point
// reductions are never accumulated concurrently - per-element terms are
// stored and summed serially in slot order afterwards.  The result is
// therefore bit-identical to phy::golden_receive at any worker count;
// tests/test_backend_parallel.cpp pins that over a scenario grid.
#include <cmath>

#include "baseline/reference.h"
#include "common/thread_pool.h"
#include "phy/qam.h"
#include "runtime/backend_parallel.h"

namespace pp::runtime {

namespace {

using phy::cd;
using common::Thread_pool;

// OFDM FFT of one symbol: the symbol's n_rx antenna transforms fanned out
// over the workers, each owning whole transforms and running the exact
// serial-receiver sequence - ref::fft_into reusing the row's capacity, then
// the sqrt(N) compensation of the 1/sqrt(N) transmit normalization (scale
// by 1/N, then by sqrt(N), as two operations).  Workers beyond the antenna
// count get empty slices.  `freq` is reused across symbols, so the backend
// holds one symbol's spectra at a time - the serial receiver's footprint.
void run_fft_symbol(Thread_pool& pool, const phy::Uplink_scenario& sc,
                    uint32_t s, std::vector<std::vector<cd>>& freq) {
  const auto& cfg = sc.config();
  const double fft_comp = std::sqrt(static_cast<double>(cfg.fft_size));
  pool.parallel_for(cfg.n_rx, [&](uint64_t r) {
    std::vector<cd>& a = freq[r];
    ref::fft_into(sc.antenna_time(s, static_cast<uint32_t>(r)), a);
    for (auto& v : a) v *= fft_comp;
  });
}

// Beamforming of one symbol: the matched-filter MMM beams = F^T * B,
// row-block tiled over sub-carriers.  The transpose gather is pure data
// movement; the arithmetic lives in ref::matmul_rows, whose per-row
// accumulation order matches the serial receiver's antenna loop.  `ft` is
// a shared scratch reused across symbols: within a dispatch each worker
// reads only the rows it wrote itself, and run() joins before the next
// symbol reuses the buffer.
void run_beamform_symbol(Thread_pool& pool, const phy::Uplink_scenario& sc,
                         const std::vector<std::vector<cd>>& freq,
                         std::vector<cd>& ft, std::span<cd> beams_s) {
  const auto& cfg = sc.config();
  const uint32_t workers = pool.workers();
  pool.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(cfg.n_sc, w, workers);
    phy::gather_subcarrier_rows(freq, ft, cfg.n_rx, first, last);
    ref::matmul_rows(ft, sc.codebook(), beams_s, cfg.n_sc, cfg.n_rx,
                     cfg.n_beams, first, last);
  });
}

// Channel-estimation stage: per-(UE, sub-carrier) row tiles of
// phy::che_rows (every row of h_hat is written, so the reused buffer
// needs no clearing).
void run_che_stage(Thread_pool& pool, const phy::Uplink_scenario& sc,
                   std::vector<cd>& h_hat) {
  const auto& cfg = sc.config();
  common::ws_grow(h_hat,
                  static_cast<size_t>(cfg.n_sc) * cfg.n_beams * cfg.n_ue);

  const uint64_t n_rows = static_cast<uint64_t>(cfg.n_ue) * cfg.n_sc;
  pool.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(n_rows, w, pool.workers());
    phy::che_rows(sc, h_hat, first, last);
  });
}

// Noise-estimation stage: per-cell pilot residuals (phy::ne_terms) computed
// in parallel, summed serially in (symbol, sub-carrier, beam) order so the
// estimate is bit-identical to the serial accumulation.
double run_ne_stage(Thread_pool& pool, const phy::Uplink_scenario& sc,
                    const common::Ws_grid<cd>& beams,
                    const std::vector<cd>& h_hat,
                    std::vector<double>& terms) {
  const auto& cfg = sc.config();
  const uint64_t n_items = static_cast<uint64_t>(cfg.n_pilot_symb) * cfg.n_sc;
  common::ws_grow(terms, n_items * cfg.n_beams);
  pool.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(n_items, w, pool.workers());
    phy::ne_terms(sc, beams, h_hat, terms, first, last);
  });
  return phy::mean_of_terms(terms);
}

// MIMO stage: per-UE-batch LMMSE - each (data symbol, sub-carrier) item is
// one Gram + Cholesky + forward/backward substitution problem
// (phy::mimo_items -> ref::lmmse_into on the worker's private Mimo_ws),
// items statically sliced across workers.  Equalized symbols land at their
// slot index; the EVM reduction happens serially afterwards.
void run_mimo_stage(Thread_pool& pool, const phy::Uplink_scenario& sc,
                    const common::Ws_grid<cd>& beams,
                    const std::vector<cd>& h_hat, double sigma2_hat,
                    std::vector<std::vector<cd>>& symbols,
                    std::vector<double>& evm_terms,
                    std::vector<phy::Mimo_ws>& mimo_ws) {
  const auto& cfg = sc.config();
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  const uint64_t n_items = static_cast<uint64_t>(n_data) * cfg.n_sc;

  symbols.resize(cfg.n_ue);
  for (auto& s : symbols) common::ws_grow(s, n_items);
  common::ws_grow(evm_terms, n_items * cfg.n_ue);

  pool.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(n_items, w, pool.workers());
    phy::mimo_items(sc, beams, h_hat, sigma2_hat, symbols, evm_terms,
                    mimo_ws[w], first, last);
  });
}

}  // namespace

void Parallel_backend::run_front_into(const Pipeline&,
                                      const phy::Uplink_scenario& sc,
                                      Slot_front& out) {
  const auto& cfg = sc.config();

  // 1) OFDM demodulation + 2) beamforming, fused per symbol (the serial
  // receiver's memory footprint: one symbol's spectra live at a time).
  // Every beam row is fully written by matmul_rows over the workers'
  // disjoint row tiles.
  out.beams.shape(cfg.n_symb, static_cast<size_t>(cfg.n_sc) * cfg.n_beams);
  if (freq_.size() < cfg.n_rx) freq_.resize(cfg.n_rx);
  common::ws_grow(ft_, static_cast<size_t>(cfg.n_sc) * cfg.n_rx);
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    run_fft_symbol(pool_, sc, s, freq_);
    run_beamform_symbol(pool_, sc, freq_, ft_, out.beams.row(s));
  }
}

void Parallel_backend::run_back_into(const Pipeline&,
                                     const phy::Uplink_scenario& sc,
                                     const Slot_front& front,
                                     Slot_result& out) {
  const auto& cfg = sc.config();

  // 3) Channel estimation + 4) noise estimation.
  run_che_stage(pool_, sc, h_hat_);
  const double sigma2_hat =
      run_ne_stage(pool_, sc, front.beams, h_hat_, sig_terms_);

  // 5) MIMO LMMSE + EVM against the transmitted constellation, straight
  // into the caller's result storage.
  run_mimo_stage(pool_, sc, front.beams, h_hat_, sigma2_hat, out.symbols,
                 evm_terms_, mimo_ws_);

  // 6) Demodulation (parallel per UE) + the shared serial epilogue.
  out.backend = name_;
  out.bits.resize(cfg.n_ue);
  pool_.parallel_for(cfg.n_ue, [&](uint64_t l) {
    phy::qam_demodulate_into(cfg.qam, out.symbols[l], out.bits[l]);
  });
  out.evm = phy::evm_from_terms(evm_terms_);
  out.ber = phy::payload_ber(sc, out.bits);
  out.sigma2_hat = sigma2_hat;
  out.stages.clear();  // no kernel launches to report
}

size_t Parallel_backend::workspace_bytes() const {
  size_t b = Backend::workspace_bytes() + common::ws_rows_footprint(freq_) +
             ft_.capacity() * sizeof(cd) + h_hat_.capacity() * sizeof(cd) +
             (sig_terms_.capacity() + evm_terms_.capacity()) * sizeof(double);
  for (const auto& ws : mimo_ws_) b += ws.footprint_bytes();
  return b;
}

}  // namespace pp::runtime
