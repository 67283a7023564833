#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "fixed/q15_kernels.h"
#include "phy/qam.h"
#include "pusch/complexity.h"
#include "runtime/workspace.h"

namespace perfbench {

namespace {

using pp::common::cq15;
using pp::common::ws_grow;
using pp::phy::cd;
using pp::runtime::Stage_role;

const pp::runtime::Stage_spec& stage(const pp::runtime::Pipeline& p,
                                     Stage_role role) {
  const pp::runtime::Stage_spec* s = p.find(role);
  if (!s) {
    std::fprintf(stderr, "perfbench: pipeline lacks a stage the chain needs\n");
    std::abort();
  }
  return *s;
}

void add_macs(const pp::phy::Uplink_config& c, Fixed_counts& counts) {
  pp::pusch::Pusch_dims d;
  d.n_sc = c.n_sc;
  d.fft_size = c.fft_size;
  d.n_symb = c.n_symb;
  d.n_pilot_symb = c.n_pilot_symb;
  d.n_rx = c.n_rx;
  d.n_beams = c.n_beams;
  d.n_ue = c.n_ue;
  const pp::pusch::Stage_macs macs = pp::pusch::pusch_macs(d);
  counts.fft_macs += macs.ofdm;
  counts.bf_macs += macs.bf;
  counts.che_macs += macs.che;
  counts.ne_macs += macs.ne;
  counts.chol_solve_macs += macs.mimo;
  counts.gram_macs += double(d.n_data_symb()) * d.n_sc * d.n_beams *
                      (d.n_ue * (d.n_ue + 1) / 2.0 + d.n_ue);
}

}  // namespace

void put_fixed_metrics(const Tracer& tr, const Fixed_counts& c, double slots,
                       Metrics& m) {
  const struct {
    const char* name;
    uint64_t calls;
    double macs;
  } kernels[] = {
      {"fixed.fft", c.fft, c.fft_macs},
      {"fixed.bf", c.bf, c.bf_macs},
      {"fixed.che", c.che, c.che_macs},
      {"fixed.ne", c.ne, c.ne_macs},
      {"fixed.gram", c.gram, c.gram_macs},
      {"fixed.chol_solve", c.chol_solve, c.chol_solve_macs},
  };
  for (const auto& k : kernels) {
    const std::string n = k.name;
    const double s = tr.total(k.name).seconds;
    m.put(n + "_ms", 1e3 * s / slots, "ms");
    m.put(n + ".calls", static_cast<double>(k.calls) / slots, "count");
    m.put(n + ".gcmac_s", k.macs / s / 1e9, "Gcmac/s");
  }
  const double s = tr.total("fixed.marshal").seconds;
  m.put("fixed.marshal_ms", 1e3 * s / slots, "ms");
  m.put("fixed.marshal.calls", static_cast<double>(c.marshal) / slots,
        "count");
  m.put("fixed.marshal.gelem_s", static_cast<double>(c.marshal_elems) / s / 1e9,
        "Gelem/s");
}

double glue_seconds(const Tracer& tr, const std::string& family) {
  return tr.total((family + ".front").c_str()).self_seconds +
         tr.total((family + ".back").c_str()).self_seconds;
}

// Mirrors Fixed_backend::front_into / back_into with one worker.  Every
// per-item loop of the backend is split into whole phases (all FFTs, then
// all marshaling, ...); items are independent and each keeps its exact
// arithmetic, and the EVM reduction keeps the backend's order, so the
// result is bit-identical.
void Fixed_replay::run(const pp::runtime::Pipeline& p,
                       const pp::phy::Uplink_scenario& sc, bool simd,
                       Tracer* tr, int64_t slot,
                       pp::runtime::Slot_result& out) {
  const auto& cfg = sc.config();
  const uint32_t n = cfg.fft_size;
  const uint32_t n_r = cfg.n_rx, n_b = cfg.n_beams, n_l = cfg.n_ue;
  const size_t n_fft = size_t{cfg.n_symb} * n_r;
  const size_t n_items = size_t{cfg.n_symb} * n;
  add_macs(cfg, counts);

  // ---- front half: OFDM FFT + beamforming -----------------------------
  {
    Scope front(tr, "fixed.front", slot);
    const double s_time = stage(p, Stage_role::fft).rescale;
    const double s_grid = stage(p, Stage_role::beamform).rescale;
    const double ds = s_time / std::sqrt(static_cast<double>(n));
    const pp::fixed::Fft_plan& plan = pp::fixed::fft_plan(n);
    ws_grow(tq_, n_fft * n);
    ws_grow(fout_, n_fft * n);
    ws_grow(freq_, n_fft * n);
    ws_grow(aq_, n_items * n_r);
    ws_grow(cq_, n_items * n_b);
    beams_.shape(cfg.n_symb, size_t{n} * n_b);
    {
      Scope s(tr, "fixed.marshal", slot);
      pp::runtime::quantize_into(sc.codebook(), 1.0, bq_);
      for (size_t t = 0; t < n_fft; ++t) {
        const auto& x = sc.antenna_time(static_cast<uint32_t>(t / n_r),
                                        static_cast<uint32_t>(t % n_r));
        cq15* q = tq_.data() + t * n;
        for (uint32_t i = 0; i < n; ++i) {
          q[i] = pp::common::to_cq15(x[i] * s_time);
        }
      }
      counts.marshal += 2;
      counts.marshal_elems += bq_.size() + n_fft * n;
    }
    {
      Scope s(tr, "fixed.fft", slot);
      for (size_t t = 0; t < n_fft; ++t) {
        pp::fixed::fft_transform(plan, tq_.data() + t * n,
                                 fout_.data() + t * n, simd);
      }
      counts.fft += n_fft;
    }
    {
      Scope s(tr, "fixed.marshal", slot);
      for (size_t i = 0; i < n_fft * n; ++i) {
        freq_[i] = pp::common::to_cd(fout_[i]) / ds;
      }
      for (size_t item = 0; item < n_items; ++item) {
        const size_t sy = item / n, scx = item % n;
        for (uint32_t r = 0; r < n_r; ++r) {
          aq_[item * n_r + r] =
              pp::common::to_cq15(freq_[(sy * n_r + r) * n + scx] * s_grid);
        }
      }
      counts.marshal += 2;
      counts.marshal_elems += n_fft * n + n_items * n_r;
    }
    {
      Scope s(tr, "fixed.bf", slot);
      pp::fixed::mmm_rows(aq_.data(), bq_.data(), cq_.data(), n_r, n_b, 0,
                          static_cast<uint32_t>(n_items));
      counts.bf += 1;
    }
    {
      Scope s(tr, "fixed.marshal", slot);
      for (size_t item = 0; item < n_items; ++item) {
        std::span<cd> brow = beams_.row(item / n);
        for (uint32_t q = 0; q < n_b; ++q) {
          brow[(item % n) * n_b + q] =
              pp::common::to_cd(cq_[item * n_b + q]) / s_grid;
        }
      }
      counts.marshal += 1;
      counts.marshal_elems += n_items * n_b;
    }
  }

  // ---- back half: CHE, NE, Gram, Cholesky + solves, demodulation ------
  Scope back(tr, "fixed.back", slot);
  const auto& ne_spec = stage(p, Stage_role::ne);
  const double s_che = stage(p, Stage_role::che).rescale;
  const double s_est = ne_spec.rescale;
  const double s_rhs = stage(p, Stage_role::gram).rescale;
  const uint32_t batch =
      stage(p, Stage_role::mimo_solve).run.params.getu("symb_batch", 1);
  const size_t h_elems = size_t{n} * n_b * n_l;
  out.backend = "fixed";

  if (pilots_q_.size() < n_l) pilots_q_.resize(n_l);
  if (y_sep_q_.size() < n_l) y_sep_q_.resize(n_l);
  {
    Scope s(tr, "fixed.marshal", slot);
    for (uint32_t l = 0; l < n_l; ++l) {
      pp::runtime::quantize_into(sc.pilot(l), 1.0, pilots_q_[l]);
      pp::runtime::quantize_into(sc.pilot_obs_beam(l), s_che, y_sep_q_[l]);
      counts.marshal_elems += pilots_q_[l].size() + y_sep_q_[l].size();
    }
    counts.marshal += 2 * n_l;
  }
  ws_grow(h_q_, h_elems);
  {
    Scope s(tr, "fixed.che", slot);
    pp::fixed::che_subcarriers(y_sep_q_, pilots_q_, h_q_.data(), n_b, n_l, 0,
                               n, simd);
    counts.che += 1;
  }
  {
    Scope s(tr, "fixed.marshal", slot);
    pp::runtime::dequantize_into(h_q_, s_che, h_hat_);
    pp::runtime::quantize_into(beams_.row(0), s_est, y_est_);
    pp::runtime::quantize_into(h_hat_, s_est, h_est_);
    counts.marshal += 3;
    counts.marshal_elems += 2 * h_elems + y_est_.size();
  }

  // NE: one partial per simulated core block, folded mod 2^32 in block
  // order (the partition is the simulated one whatever the host runs).
  uint32_t ne_cores = ne_spec.run.params.getu("cores", 0);
  if (ne_cores == 0) ne_cores = p.cluster().n_cores();
  ws_grow(contribs_, ne_cores);
  {
    Scope s(tr, "fixed.ne", slot);
    for (uint32_t idx = 0; idx < ne_cores; ++idx) {
      const pp::fixed::Sc_block blk = pp::fixed::sc_block(n, ne_cores, idx);
      const int64_t partial = pp::fixed::ne_partial(
          y_est_.data(), h_est_.data(), pilots_q_, n_b, n_l, blk.lo, blk.hi);
      contribs_[idx] = static_cast<uint32_t>(
          std::max<int64_t>(0, partial >> pp::common::q15_frac_bits));
    }
    counts.ne += ne_cores;
  }
  uint32_t raw = 0;
  for (uint32_t i = 0; i < ne_cores; ++i) raw += contribs_[i];
  const double count = static_cast<double>(n) * n_b;
  out.sigma2_hat = static_cast<double>(raw) /
                   (count * static_cast<double>(1 << pp::common::q15_frac_bits)) /
                   (s_est * s_est);

  {
    Scope s(tr, "fixed.marshal", slot);
    pp::runtime::quantize_into(h_hat_, 1.0, gh_q_);
    counts.marshal += 1;
    counts.marshal_elems += h_elems;
  }
  const cq15 sigma{pp::common::to_q15(out.sigma2_hat), 0};
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  out.bits.resize(n_l);
  out.symbols.resize(n_l);
  for (auto& eq : out.symbols) ws_grow(eq, size_t{n_data} * n);
  double evm_acc = 0.0;
  uint64_t evm_cnt = 0;
  ws_grow(xs_, size_t{batch} * n * n_l);
  for (uint32_t s0 = cfg.n_pilot_symb; s0 < cfg.n_symb; s0 += batch) {
    for (uint32_t b = 0; b < batch; ++b) {
      {
        Scope s(tr, "fixed.marshal", slot);
        pp::runtime::quantize_into(beams_.row(s0 + b), s_rhs, y_q_);
        counts.marshal += 1;
        counts.marshal_elems += y_q_.size();
      }
      ws_grow(g_, size_t{n} * n_l * n_l);
      std::fill(g_.begin(), g_.end(), cq15{});
      ws_grow(rhs_, size_t{n} * n_l);
      std::fill(rhs_.begin(), rhs_.end(), cq15{});
      {
        Scope s(tr, "fixed.gram", slot);
        pp::fixed::gram_subcarriers(gh_q_.data(), y_q_.data(), sigma, g_.data(),
                                    rhs_.data(), n_b, n_l, 0, n);
        counts.gram += 1;
      }
      {
        Scope s(tr, "fixed.chol_solve", slot);
        cq15 lmat[64];
        for (uint32_t scx = 0; scx < n; ++scx) {
          pp::fixed::cholesky(g_.data() + size_t{scx} * n_l * n_l, lmat, n_l);
          pp::fixed::trisolve(lmat, rhs_.data() + size_t{scx} * n_l,
                              xs_.data() + (size_t{b} * n + scx) * n_l, n_l);
        }
        counts.chol_solve += 2 * n;
      }
    }
    // Epilogue in the backend's loop order (the EVM sum is a float
    // reduction; its order is part of the bit-exact contract).
    Scope s(tr, "fixed.marshal", slot);
    for (uint32_t b = 0; b < batch; ++b) {
      const uint32_t sy = s0 + b;
      for (uint32_t scx = 0; scx < n; ++scx) {
        pp::runtime::dequantize_into(xs_.data() + (size_t{b} * n + scx) * n_l,
                                     n_l, s_rhs, x_);
        const size_t idx = size_t{sy - cfg.n_pilot_symb} * n + scx;
        for (uint32_t l = 0; l < n_l; ++l) {
          const cd sym = x_[l] / cfg.ue_power;
          out.symbols[l][idx] = sym;
          const cd want = sc.tx_grid(l, sy)[scx] / cfg.ue_power;
          evm_acc += std::norm(sym - want);
          ++evm_cnt;
        }
      }
    }
    counts.marshal += size_t{batch} * n;
    counts.marshal_elems += size_t{batch} * n * n_l;
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(evm_cnt));

  uint64_t nerr = 0, nbits = 0;
  for (uint32_t l = 0; l < n_l; ++l) {
    pp::phy::qam_demodulate_into(cfg.qam, out.symbols[l], out.bits[l]);
    const auto& want = sc.tx_bits(l);
    for (size_t i = 0; i < want.size() && i < out.bits[l].size(); ++i) {
      nerr += want[i] != out.bits[l][i];
    }
    nbits += want.size();
  }
  out.ber = static_cast<double>(nerr) / static_cast<double>(nbits);
}

// Mirrors phy::golden_front_into + golden_back_into (Reference_backend).
void Ref_replay::run(const pp::phy::Uplink_scenario& sc, Tracer* tr,
                     int64_t slot, pp::runtime::Slot_result& out) {
  const auto& cfg = sc.config();
  const double fft_comp = std::sqrt(static_cast<double>(cfg.fft_size));
  {
    Scope front(tr, "ref.front", slot);
    beams_.shape(cfg.n_symb, size_t{cfg.n_sc} * cfg.n_beams);
    if (freq_.size() < cfg.n_rx) freq_.resize(cfg.n_rx);
    ws_grow(ft_, size_t{cfg.n_sc} * cfg.n_rx);
    for (uint32_t s = 0; s < cfg.n_symb; ++s) {
      {
        Scope f(tr, "ref.fft", slot);
        for (uint32_t r = 0; r < cfg.n_rx; ++r) {
          pp::ref::fft_into(sc.antenna_time(s, r), freq_[r]);
          for (auto& v : freq_[r]) v *= fft_comp;
        }
      }
      Scope b(tr, "ref.bf", slot);
      pp::phy::gather_subcarrier_rows(freq_, ft_, cfg.n_rx, 0, cfg.n_sc);
      pp::ref::matmul_rows(ft_, sc.codebook(), beams_.row(s), cfg.n_sc,
                           cfg.n_rx, cfg.n_beams, 0, cfg.n_sc);
    }
  }

  Scope back(tr, "ref.back", slot);
  out.backend = "reference";
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  {
    Scope s(tr, "ref.che", slot);
    ws_grow(h_hat_, size_t{cfg.n_sc} * cfg.n_beams * cfg.n_ue);
    pp::phy::che_rows(sc, h_hat_, 0, uint64_t{cfg.n_ue} * cfg.n_sc);
  }
  {
    Scope s(tr, "ref.ne", slot);
    ws_grow(sig_terms_, uint64_t{cfg.n_pilot_symb} * cfg.n_sc * cfg.n_beams);
    pp::phy::ne_terms(sc, beams_, h_hat_, sig_terms_, 0,
                      uint64_t{cfg.n_pilot_symb} * cfg.n_sc);
    out.sigma2_hat = pp::phy::mean_of_terms(sig_terms_);
  }
  const uint64_t n_items = uint64_t{n_data} * cfg.n_sc;
  out.symbols.resize(cfg.n_ue);
  for (auto& s : out.symbols) ws_grow(s, n_items);
  out.bits.resize(cfg.n_ue);
  {
    Scope s(tr, "ref.mimo", slot);
    ws_grow(evm_terms_, n_items * cfg.n_ue);
    pp::phy::mimo_items(sc, beams_, h_hat_, out.sigma2_hat, out.symbols,
                        evm_terms_, mimo_, 0, n_items);
    out.evm = pp::phy::evm_from_terms(evm_terms_);
  }
  Scope s(tr, "ref.demod", slot);
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    pp::phy::qam_demodulate_into(cfg.qam, out.symbols[l], out.bits[l]);
  }
  out.ber = pp::phy::payload_ber(sc, out.bits);
}

}  // namespace perfbench
