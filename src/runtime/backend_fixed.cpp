// Fixed-point host slot execution, bit-identical to the sim backend.
//
// This file replays backend_sim.cpp's host marshaling line by line - the
// same quantization of scenario inputs, the same Q15_rescale hand-offs
// between kernels at the same block-rescaling factors, the same EVM/BER
// epilogue order - and substitutes each simulated kernel launch with the
// host Q15 kernels of src/fixed/.  Any change to the sim backend's
// marshaling must be mirrored here (tests/test_backend_fixed.cpp pins the
// bit-exact contract across a scenario grid, worker counts and the
// split/pipelined path).
//
// All marshaling staging lives in the backend's slot workspaces
// (grow-then-stabilize): after the first slot of a shape, a run allocates
// nothing - the serving benches gate that under PP_COUNT_ALLOCS.
#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "runtime/backend_fixed.h"
#include "runtime/workspace.h"

namespace pp::runtime {

namespace {

using common::cq15;
using common::Thread_pool;
using phy::cd;

const Stage_spec& require(const Pipeline& p, Stage_role role,
                          const char* what) {
  const Stage_spec* s = p.find(role);
  PP_CHECK(s != nullptr && !s->run.kernel.empty(), what);
  return *s;
}

// Beamforming rows gathered per MMM call: enough to amortize the SIMD
// path's staging of the codebook, small enough to stay in L1.
constexpr uint32_t kMmmRowBlock = 64;

}  // namespace

bool Fixed_backend::simd_active() const {
  return simd_ && fixed::simd_available();
}

void Fixed_backend::run_slot_into(const Pipeline& p,
                                  const phy::Uplink_scenario& sc,
                                  Slot_result& out) {
  front_into(p, sc, beams_);
  back_into(p, sc, beams_, out);
}

void Fixed_backend::run_front_into(const Pipeline& p,
                                   const phy::Uplink_scenario& sc,
                                   Slot_front& out) {
  front_into(p, sc, out.beams_q);
}

void Fixed_backend::run_back_into(const Pipeline& p,
                                  const phy::Uplink_scenario& sc,
                                  const Slot_front& front, Slot_result& out) {
  back_into(p, sc, front.beams_q, out);
}

void Fixed_backend::front_into(const Pipeline& p,
                               const phy::Uplink_scenario& sc,
                               common::Ws_grid<cq15>& beams) {
  const auto& cfg = sc.config();
  PP_CHECK(cfg.n_sc == cfg.fft_size,
           "fixed backend assumes all FFT bins are active sub-carriers");
  const uint32_t n = cfg.fft_size;
  const Stage_spec& fft_spec =
      require(p, Stage_role::fft, "pipeline needs an fft stage");
  const Stage_spec& bf_spec =
      require(p, Stage_role::beamform, "pipeline needs a beamform stage");
  const double s_time = fft_spec.rescale;
  // The kernel computes FFT/N of the s_time-scaled samples and the
  // transmitter normalized time by 1/sqrt(N) (same comment as backend_sim),
  // so the spectra come out at scale s_time/sqrt(N) and go into the MMM at
  // the beamform stage's scale.
  const Q15_rescale to_grid(s_time / std::sqrt(static_cast<double>(n)),
                            bf_spec.rescale);
  const fixed::Fft_plan& plan = fixed::fft_plan(n);
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();

  // Quantized beamforming codebook (n_rx x n_beams), reused every symbol.
  quantize_into(sc.codebook(), 1.0, bq_);

  // Spectra per (symbol, antenna) at the MMM input scale: row s * n_rx + r
  // of the workspace grid.  Every row is fully written by the FFT phase
  // before the MMM phase reads it (barrier in between).
  freq_.shape(static_cast<size_t>(cfg.n_symb) * cfg.n_rx, n);
  beams.shape(cfg.n_symb, static_cast<size_t>(n) * cfg.n_beams);

  const uint64_t n_fft = static_cast<uint64_t>(cfg.n_symb) * cfg.n_rx;
  common::Counting_barrier bar(workers);

  // Beamforming: blocks of (symbol, sub-carrier) rows of the MMM - gather
  // the sub-carrier rows across antennas, exact MAC against the codebook
  // straight into the beam grid.  Element-for-element the arithmetic of
  // the sim backend's whole-matrix MMM.
  auto mmm_rows_phase = [&](uint32_t w) {
    std::vector<cq15>& aq = fft_ws_[w].aq;
    common::ws_grow(aq, static_cast<size_t>(kMmmRowBlock) * cfg.n_rx);
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
          aq[static_cast<size_t>(i) * cfg.n_rx + r] = f[sc0 + i];
        }
      }
      fixed::mmm_rows(aq.data(), bq_.data(),
                      beams.row(s).data() + static_cast<size_t>(sc0) *
                                                cfg.n_beams,
                      cfg.n_rx, cfg.n_beams, 0, rows, simd);
      item += rows;
    }
  };

  if (n_fft >= workers) {
    // Enough transforms to hand each worker its own.
    pool_.run([&](uint32_t w) {
      std::vector<cq15>& buf = fft_ws_[w].buf;
      std::vector<cq15>& fout = fft_ws_[w].fout;
      common::ws_grow(buf, n);
      common::ws_grow(fout, n);
      const auto [f0, f1] = Thread_pool::slice(n_fft, w, workers);
      for (uint64_t t = f0; t < f1; ++t) {
        const uint32_t s = static_cast<uint32_t>(t / cfg.n_rx);
        const uint32_t r = static_cast<uint32_t>(t % cfg.n_rx);
        const auto& x = sc.antenna_time(s, r);
        const uint32_t done =
            simd ? fixed::quantize_prefix(x.data(), s_time, buf.data(), n) : 0;
        for (uint32_t i = done; i < n; ++i) {
          buf[i] = common::to_cq15(x[i] * s_time);
        }
        fixed::fft_transform(plan, buf.data(), fout.data(), simd);
        rescale_into(fout.data(), n, to_grid, freq_.row(t).data());
      }
      bar.arrive_and_wait();
      mmm_rows_phase(w);
    });
  } else {
    // Cooperative FFT: every transform is tiled across all workers,
    // butterfly ranges per stage with a barrier in between (each stage's
    // butterflies touch disjoint elements).
    common::ws_grow(coop_buf_, n);
    common::ws_grow(coop_fout_, n);
    pool_.run([&](uint32_t w) {
      const auto [e0, e1] = Thread_pool::slice(n, w, workers);
      const auto [g0, g1] = Thread_pool::slice(n / 4, w, workers);
      for (uint64_t t = 0; t < n_fft; ++t) {
        const uint32_t s = static_cast<uint32_t>(t / cfg.n_rx);
        const uint32_t r = static_cast<uint32_t>(t % cfg.n_rx);
        const auto& x = sc.antenna_time(s, r);
        const uint64_t done =
            simd ? e0 + fixed::quantize_prefix(x.data() + e0, s_time,
                                               coop_buf_.data() + e0,
                                               static_cast<uint32_t>(e1 - e0))
                 : e0;
        for (uint64_t i = done; i < e1; ++i) {
          coop_buf_[i] = common::to_cq15(x[i] * s_time);
        }
        bar.arrive_and_wait();
        for (uint32_t k = 0; k < plan.geom.stages; ++k) {
          fixed::fft_stage(plan, k, coop_buf_.data(), coop_fout_.data(),
                           static_cast<uint32_t>(g0),
                           static_cast<uint32_t>(g1), simd);
          bar.arrive_and_wait();
        }
        rescale_into(coop_fout_.data() + e0, e1 - e0, to_grid,
                     freq_.row(t).data() + e0);
        bar.arrive_and_wait();  // buf/fout are reused by the next transform
      }
      mmm_rows_phase(w);
    });
  }
}

void Fixed_backend::back_into(const Pipeline& p,
                              const phy::Uplink_scenario& sc,
                              const common::Ws_grid<cq15>& beams,
                              Slot_result& out) {
  const auto& cfg = sc.config();
  const uint32_t n = cfg.fft_size;
  const uint32_t n_b = cfg.n_beams;
  const uint32_t n_l = cfg.n_ue;
  const Stage_spec& che_spec =
      require(p, Stage_role::che, "pipeline needs a che stage");
  const Stage_spec& ne_spec =
      require(p, Stage_role::ne, "pipeline needs an ne stage");
  const Stage_spec& gram_spec =
      require(p, Stage_role::gram, "pipeline needs a gram stage");
  const Stage_spec& mimo_spec =
      require(p, Stage_role::mimo_solve, "pipeline needs a mimo_solve stage");
  const double s_grid =
      require(p, Stage_role::beamform, "pipeline needs a beamform stage")
          .rescale;
  const double s_che = che_spec.rescale;
  const double s_est = ne_spec.rescale;
  const double s_rhs = gram_spec.rescale;
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();

  out.backend = "fixed";
  mirror_sim_stage_runs(p, cfg, out);

  // ---- channel estimation on the pilot symbols ------------------------
  // The estimate h[sc][b][l] leaves CHE at scale s_che and is handed on at
  // NE's scale and at unit scale for the Gramian, tile by tile.
  if (pilots_q_.size() < n_l) pilots_q_.resize(n_l);  // grow-only outers
  if (y_sep_q_.size() < n_l) y_sep_q_.resize(n_l);
  for (uint32_t l = 0; l < n_l; ++l) {
    quantize_into(sc.pilot(l), 1.0, pilots_q_[l]);
    quantize_into(sc.pilot_obs_beam(l), s_che, y_sep_q_[l]);
  }
  const size_t h_elems = static_cast<size_t>(n) * n_b * n_l;
  const size_t h_per_sc = static_cast<size_t>(n_b) * n_l;
  const Q15_rescale che_to_est(s_che, s_est), che_to_gram(s_che, 1.0);
  common::ws_grow(h_q_, h_elems);
  common::ws_grow(h_est_, h_elems);
  common::ws_grow(gh_q_, h_elems);
  pool_.run([&](uint32_t w) {
    const auto [lo, hi] = Thread_pool::slice(n, w, workers);
    fixed::che_subcarriers(y_sep_q_, pilots_q_, h_q_.data(), n_b, n_l,
                           static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(hi), simd);
    const size_t e0 = lo * h_per_sc, len = (hi - lo) * h_per_sc;
    rescale_into(h_q_.data() + e0, len, che_to_est, h_est_.data() + e0);
    rescale_into(h_q_.data() + e0, len, che_to_gram, gh_q_.data() + e0);
  });

  // ---- noise estimation ------------------------------------------------
  // The sim NE folds one uint32 contribution per core block, so the
  // estimate depends on the *simulated* partition: replay exactly that
  // many blocks regardless of the host worker count.
  rescale_into(beams.row(0), Q15_rescale(s_grid, s_est), y_est_);
  uint32_t ne_cores = ne_spec.run.params.getu("cores", 0);
  if (ne_cores == 0) ne_cores = p.cluster().n_cores();
  common::ws_grow(contribs_, ne_cores);
  pool_.parallel_for(ne_cores, [&](uint64_t idx) {
    const fixed::Sc_block blk =
        fixed::sc_block(n, ne_cores, static_cast<uint32_t>(idx));
    const int64_t partial = fixed::ne_partial(
        y_est_.data(), h_est_.data(), pilots_q_, n_b, n_l, blk.lo, blk.hi);
    contribs_[idx] = static_cast<uint32_t>(
        std::max<int64_t>(0, partial >> common::q15_frac_bits));
  });
  uint32_t raw = 0;  // wraps mod 2^32 like the simulated amo_add word
  for (uint32_t i = 0; i < ne_cores; ++i) raw += contribs_[i];
  const double count = static_cast<double>(n) * n_b;
  const double sigma2_hat =
      static_cast<double>(raw) /
      (count * static_cast<double>(1 << common::q15_frac_bits)) /
      (s_est * s_est);
  out.sigma2_hat = sigma2_hat;

  // ---- MIMO per data symbol: G = H^H H + sigma2 I, Cholesky, solves ----
  const cq15 sigma{common::to_q15(sigma2_hat), 0};
  const Q15_rescale grid_to_rhs(s_grid, s_rhs);
  const uint32_t batch = mimo_spec.run.params.getu("symb_batch", 1);
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  out.bits.resize(n_l);
  out.symbols.resize(n_l);  // equalized symbols, indexed (data symbol, sc)
  for (auto& eq : out.symbols) {
    common::ws_grow(eq, static_cast<size_t>(n_data) * n);
  }
  double evm_acc = 0.0;
  uint64_t evm_cnt = 0;

  y_q_.shape(batch, static_cast<size_t>(n) * n_b);
  common::ws_grow(xs_, static_cast<size_t>(batch) * n * n_l);
  for (uint32_t s0 = cfg.n_pilot_symb; s0 < cfg.n_symb; s0 += batch) {
    // (symbol-in-batch, sub-carrier) problems in contiguous sub-carrier
    // runs per worker: hand the beam rows on at the matched filter's scale,
    // then Gramian, Cholesky and both substitutions per sub-carrier.
    pool_.run([&](uint32_t w) {
      const auto [i0, i1] =
          Thread_pool::slice(static_cast<uint64_t>(batch) * n, w, workers);
      for (uint64_t item = i0; item < i1;) {
        const uint32_t b = static_cast<uint32_t>(item / n);
        const uint32_t lo = static_cast<uint32_t>(item % n);
        const uint32_t hi =
            static_cast<uint32_t>(std::min<uint64_t>(n, lo + (i1 - item)));
        const size_t y0 = static_cast<size_t>(lo) * n_b;
        rescale_into(beams.row(s0 + b).data() + y0,
                     static_cast<size_t>(hi - lo) * n_b, grid_to_rhs,
                     y_q_.row(b).data() + y0);
        fixed::lmmse_subcarriers(gh_q_.data(), y_q_.row(b).data(), sigma,
                                 xs_.data() + static_cast<size_t>(b) * n * n_l,
                                 n_b, n_l, lo, hi, simd);
        item += hi - lo;
      }
    });

    // Serial epilogue in the sim backend's exact loop order (the EVM sum
    // is a float reduction; order is part of the contract).  Equalized
    // symbols land at their (data symbol, sub-carrier) index.
    for (uint32_t b = 0; b < batch; ++b) {
      const uint32_t s = s0 + b;
      for (uint32_t scx = 0; scx < n; ++scx) {
        dequantize_into(xs_.data() + (static_cast<size_t>(b) * n + scx) * n_l,
                        n_l, s_rhs, x_);
        const size_t idx = static_cast<size_t>(s - cfg.n_pilot_symb) * n + scx;
        for (uint32_t l = 0; l < n_l; ++l) {
          const cd sym = x_[l] / cfg.ue_power;
          out.symbols[l][idx] = sym;
          const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
          evm_acc += std::norm(sym - want);
          ++evm_cnt;
        }
      }
    }
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(evm_cnt));

  uint64_t nerr = 0, nbits = 0;
  for (uint32_t l = 0; l < n_l; ++l) {
    phy::qam_demodulate_into(cfg.qam, out.symbols[l], out.bits[l]);
    const auto& want = sc.tx_bits(l);
    PP_CHECK(want.size() == out.bits[l].size(), "payload size mismatch");
    for (size_t i = 0; i < want.size(); ++i) {
      nerr += want[i] != out.bits[l][i];
      ++nbits;
    }
  }
  out.ber = static_cast<double>(nerr) / static_cast<double>(nbits);
}

size_t Fixed_backend::workspace_bytes() const {
  size_t b = (coop_buf_.capacity() + coop_fout_.capacity() + bq_.capacity() +
              h_q_.capacity() + y_est_.capacity() + h_est_.capacity() +
              gh_q_.capacity() + xs_.capacity()) *
                 sizeof(cq15) +
             freq_.footprint_bytes() + beams_.footprint_bytes() +
             y_q_.footprint_bytes() + x_.capacity() * sizeof(cd) +
             contribs_.capacity() * sizeof(uint32_t);
  for (const auto& ws : fft_ws_) b += ws.footprint_bytes();
  b += common::ws_rows_footprint(pilots_q_) +
       common::ws_rows_footprint(y_sep_q_);
  return b;
}

}  // namespace pp::runtime
