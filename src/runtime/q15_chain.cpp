// The Q1.15 chain skeleton: its plan, its hand-offs and the Q15_backend
// entry points that run it over a kernel executor.
#include "runtime/q15_chain.h"

#include <cmath>

#include "phy/qam.h"
#include "runtime/backend.h"

namespace pp::runtime {

namespace {

using common::cq15;
using phy::cd;

const Stage_spec& require(const Pipeline& p, Stage_role role,
                          const char* what) {
  const Stage_spec* s = p.find(role);
  PP_CHECK(s != nullptr && !s->run.kernel.empty(), what);
  return *s;
}

}  // namespace

size_t Q15_ws::footprint_bytes() const {
  return (bq.capacity() + h_est.capacity() + h_gram.capacity() +
          y_est.capacity() + xs.capacity()) *
             sizeof(cq15) +
         common::ws_rows_footprint(pilots) + common::ws_rows_footprint(y_sep) +
         y_rhs.footprint_bytes() + x.capacity() * sizeof(cd);
}

Q15_chain::Q15_chain(const Pipeline& p, const phy::Uplink_scenario& scenario,
                     Q15_ws& workspace)
    : pipeline(p),
      sc(scenario),
      cfg(scenario.config()),
      fft(require(p, Stage_role::fft, "pipeline needs an fft stage")),
      bf(require(p, Stage_role::beamform, "pipeline needs a beamform stage")),
      che(require(p, Stage_role::che, "pipeline needs a che stage")),
      ne(require(p, Stage_role::ne, "pipeline needs an ne stage")),
      gram(require(p, Stage_role::gram, "pipeline needs a gram stage")),
      mimo(require(p, Stage_role::mimo_solve,
                   "pipeline needs a mimo_solve stage")),
      s_time(fft.rescale),
      s_grid(bf.rescale),
      s_che(che.rescale),
      s_est(ne.rescale),
      s_rhs(gram.rescale),
      to_grid(s_time / std::sqrt(static_cast<double>(cfg.fft_size)), s_grid),
      grid_to_est(s_grid, s_est),
      che_to_est(s_che, s_est),
      che_to_gram(s_che, 1.0),
      grid_to_rhs(s_grid, s_rhs),
      batch(mimo.run.params.getu("symb_batch", 1)),
      ne_cores(ne.run.params.getu("cores", 0)),
      ws(workspace) {
  PP_CHECK(cfg.n_sc == cfg.fft_size,
           "Q15 chain assumes all FFT bins are active sub-carriers");
  PP_CHECK(batch >= 1 && (cfg.n_symb - cfg.n_pilot_symb) % batch == 0,
           "chol symb_batch must divide the data-symbol count");
  if (ne_cores == 0) ne_cores = p.cluster().n_cores();
}

void Q15_chain::hand_on_che(const cq15* h, uint32_t sc_lo,
                            uint32_t sc_hi) const {
  const size_t per_sc = static_cast<size_t>(cfg.n_beams) * cfg.n_ue;
  const size_t e0 = sc_lo * per_sc, len = (sc_hi - sc_lo) * per_sc;
  rescale_into(h + e0, len, che_to_est, ws.h_est.data() + e0);
  rescale_into(h + e0, len, che_to_gram, ws.h_gram.data() + e0);
}

void Q15_chain::hand_on_rhs(const common::Ws_grid<cq15>& beams, uint32_t s0,
                            uint32_t b, uint32_t sc_lo, uint32_t sc_hi) const {
  const size_t y0 = static_cast<size_t>(sc_lo) * cfg.n_beams;
  rescale_into(beams.row(s0 + b).data() + y0,
               static_cast<size_t>(sc_hi - sc_lo) * cfg.n_beams, grid_to_rhs,
               ws.y_rhs.row(b).data() + y0);
}

void Q15_backend::run_front_into(const Pipeline& p,
                                 const phy::Uplink_scenario& sc,
                                 Slot_front& out) {
  const Q15_chain c(p, sc, ws_);
  quantize_into(sc.codebook(), 1.0, ws_.bq);
  out.beams_q.shape(c.cfg.n_symb,
                    static_cast<size_t>(c.cfg.fft_size) * c.cfg.n_beams);
  fft_beamform(c, out.beams_q);
}

void Q15_backend::run_back_into(const Pipeline& p,
                                const phy::Uplink_scenario& sc,
                                const Slot_front& front, Slot_result& out) {
  const Q15_chain c(p, sc, ws_);
  const auto& cfg = c.cfg;
  const auto& beams = front.beams_q;
  const uint32_t n = cfg.fft_size;
  const uint32_t n_l = cfg.n_ue;
  const size_t h_elems = static_cast<size_t>(n) * cfg.n_beams * n_l;
  out.backend = name();

  // ---- channel estimation on the pilot symbols ------------------------
  if (ws_.pilots.size() < n_l) ws_.pilots.resize(n_l);  // grow-only outers
  if (ws_.y_sep.size() < n_l) ws_.y_sep.resize(n_l);
  for (uint32_t l = 0; l < n_l; ++l) {
    quantize_into(sc.pilot(l), 1.0, ws_.pilots[l]);
    quantize_into(sc.pilot_obs_beam(l), c.s_che, ws_.y_sep[l]);
  }
  common::ws_grow(ws_.h_est, h_elems);
  common::ws_grow(ws_.h_gram, h_elems);
  che(c);

  // ---- noise estimation ------------------------------------------------
  rescale_into(beams.row(0), c.grid_to_est, ws_.y_est);
  const double sigma2_hat = ne(c) / (c.s_est * c.s_est);
  out.sigma2_hat = sigma2_hat;

  // ---- MIMO per data-symbol group, then the epilogue --------------------
  // The EVM sum is a float reduction, so its (data symbol, sub-carrier, UE)
  // order is part of the result.  Equalized symbols land at their
  // (data symbol, sub-carrier) index.
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  ws_.y_rhs.shape(c.batch, static_cast<size_t>(n) * cfg.n_beams);
  common::ws_grow(ws_.xs, static_cast<size_t>(c.batch) * n * n_l);
  out.bits.resize(n_l);
  out.symbols.resize(n_l);
  for (auto& eq : out.symbols) {
    common::ws_grow(eq, static_cast<size_t>(n_data) * n);
  }
  double evm_acc = 0.0;
  uint64_t evm_cnt = 0;
  for (uint32_t s0 = cfg.n_pilot_symb; s0 < cfg.n_symb; s0 += c.batch) {
    mimo(c, beams, s0, sigma2_hat);
    for (uint32_t b = 0; b < c.batch; ++b) {
      const uint32_t s = s0 + b;
      for (uint32_t scx = 0; scx < n; ++scx) {
        const size_t x0 = (static_cast<size_t>(b) * n + scx) * n_l;
        dequantize_into(ws_.xs.data() + x0, n_l, c.s_rhs, ws_.x);
        const size_t idx = static_cast<size_t>(s - cfg.n_pilot_symb) * n + scx;
        for (uint32_t l = 0; l < n_l; ++l) {
          const cd sym = ws_.x[l] / cfg.ue_power;
          out.symbols[l][idx] = sym;
          const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
          evm_acc += std::norm(sym - want);
          ++evm_cnt;
        }
      }
    }
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(evm_cnt));
  for (uint32_t l = 0; l < n_l; ++l) {
    phy::qam_demodulate_into(cfg.qam, out.symbols[l], out.bits[l]);
  }
  out.ber = phy::payload_ber(sc, out.bits);
  close_slot(c, out);
}

size_t Q15_backend::workspace_bytes() const {
  return Backend::workspace_bytes() + ws_.footprint_bytes();
}

}  // namespace pp::runtime
