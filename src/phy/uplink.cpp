#include "phy/uplink.h"

#include <algorithm>
#include <cmath>

#include "baseline/reference.h"
#include "common/check.h"

namespace pp::phy {

Uplink_config degrade_to_layers(const Uplink_config& cfg, uint32_t n_ue) {
  PP_CHECK(n_ue >= 1, "a degraded slot still serves at least one UE layer");
  PP_CHECK(n_ue <= cfg.n_ue, "degrade only removes UE layers");
  Uplink_config out = cfg;
  out.n_ue = n_ue;
  // sigma2 = n_ue * (channel_gain * ue_power)^2 * 10^(-snr/10) in the sweep
  // derivation: rescale by the layer ratio so each surviving UE sees the
  // same SNR.  One multiply + one divide - deterministic IEEE doubles.
  out.sigma2 = cfg.sigma2 * static_cast<double>(n_ue) /
               static_cast<double>(cfg.n_ue);
  return out;
}

namespace {

// Root of everything HARQ attempt k re-realizes: the slot seed on attempt 0,
// derive_seed(seed, kHarqStream + k) after it.
uint64_t attempt_seed(const Uplink_config& cfg) {
  return cfg.harq_attempt > 0
             ? common::Rng::derive_seed(cfg.seed,
                                        kHarqStream + cfg.harq_attempt)
             : cfg.seed;
}

Channel_config scenario_channel_config(const Uplink_config& cfg) {
  Channel_config c;
  c.n_sc = cfg.n_sc;
  c.n_rx = cfg.n_rx;
  c.n_ue = cfg.n_ue;
  c.coherence = cfg.coherence;
  c.gain = cfg.channel_gain;
  c.sigma2 = cfg.sigma2;
  c.profile = cfg.profile;
  c.n_symb = cfg.n_symb;
  c.doppler_hz = cfg.doppler_hz;
  c.delay_spread = cfg.delay_spread;
  c.symbol_s = cfg.symbol_s;
  // TDL tap streams re-realize per HARQ attempt directly through the seed;
  // the flat profile draws from a caller RNG instead, so its attempt > 0
  // rebuild happens in the scenario body (after burning the legacy draws).
  c.seed = attempt_seed(cfg);
  return c;
}

}  // namespace

Uplink_scenario::Uplink_scenario(const Uplink_config& cfg)
    : cfg_(cfg), rng_(cfg.seed),
      chan_(scenario_channel_config(cfg), rng_),
      codebook_(dft_codebook(cfg.n_rx, cfg.n_beams)) {
  PP_CHECK(cfg_.fft_size >= cfg_.n_sc, "FFT size must cover active carriers");
  PP_CHECK(cfg_.n_symb > cfg_.n_pilot_symb,
           "slot needs at least one data symbol after the pilots");
  const uint32_t bps = qam_bits(cfg_.qam);
  const uint32_t n_data = cfg_.n_symb - cfg_.n_pilot_symb;

  // Per-UE payloads and grids.
  bits_.resize(cfg_.n_ue);
  grids_.resize(cfg_.n_ue);
  pilots_.resize(cfg_.n_ue);
  for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
    bits_[l].resize(static_cast<size_t>(n_data) * cfg_.n_sc * bps);
    for (auto& b : bits_[l]) b = rng_.uniform() < 0.5 ? 0 : 1;
    const auto symbols = qam_modulate(cfg_.qam, bits_[l]);

    pilots_[l].resize(cfg_.n_sc);
    for (auto& p : pilots_[l]) {
      p = cd{rng_.uniform() < 0.5 ? 0.5 : -0.5, rng_.uniform() < 0.5 ? 0.5 : -0.5};
    }

    grids_[l].resize(cfg_.n_symb);
    uint32_t d = 0;
    for (uint32_t s = 0; s < cfg_.n_symb; ++s) {
      grids_[l][s].resize(cfg_.n_sc);
      if (is_pilot_symbol(s)) {
        grids_[l][s] = pilots_[l];
      } else {
        for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
          grids_[l][s][sc] = symbols[static_cast<size_t>(d) * cfg_.n_sc + sc] *
                             cfg_.ue_power;
        }
        ++d;
      }
    }
  }

  // HARQ attempt k > 0: the payload above came from the same rng_ positions
  // as attempt 0 (the flat channel burned its legacy draws in the init
  // list), so bits and pilots are identical; the channel and both noise
  // streams below re-realize from the attempt's seed instead.
  const uint64_t root = attempt_seed(cfg_);
  if (cfg_.harq_attempt > 0 && cfg_.profile == Channel_profile::flat) {
    common::Rng harq_rng(root);
    chan_ = Channel(scenario_channel_config(cfg_), harq_rng);
  }
  // Noise is counter-addressed: antenna sample (s, r, sc) is sample
  // (s n_rx + r) n_sc + sc of its stream and pilot-observation entry
  // (l, sc, b) sample (l n_sc + sc) n_beams + b of its own, so no draw
  // depends on the order the passes below run in.
  const common::Normal_stream antenna_noise(
      common::Rng::derive_seed(root, kAntennaNoiseStream));
  const common::Normal_stream pilot_noise(
      common::Rng::derive_seed(root, kPilotNoiseStream));

  // Channel + OFDM modulation to time domain, one symbol at a time.  The
  // symbol's channel rows are built once into `rows` and feed both the
  // per-antenna pass and, on the symbols beam_channel() averages, the beam
  // channel the pilot observations below measure.  The antenna pass writes
  // straight into that antenna's sample row: each bin starts from +0, adds
  // the UE products in index order, then its noise, and the row is
  // inverse-transformed in place (docs/DETERMINISM.md §9 rule 5).
  const double noise_amp = std::sqrt(cfg_.sigma2);
  // Normalize so time samples keep Q15 headroom; the receiver's 1/N FFT
  // scaling plus this factor is undone in the beamforming stage.
  const double time_norm = std::sqrt(static_cast<double>(cfg_.fft_size));
  std::vector<cd> rows, h_eff, h_symb;
  time_.resize(cfg_.n_symb);
  for (uint32_t s = 0; s < cfg_.n_symb; ++s) {
    // The flat response is time-invariant: symbol 0's rows serve them all.
    if (s == 0 || cfg_.profile != Channel_profile::flat) {
      channel_rows_into(s, rows);
    }
    if (s < n_mean_symbols()) fold_beam_channel(s, rows, h_eff, h_symb);
    time_[s].resize(cfg_.n_rx);
    for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
      std::vector<cd>& y = time_[s][r];
      y.assign(cfg_.fft_size, cd{0, 0});
      double* ys = reinterpret_cast<double*>(y.data());
      for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
        // y += h * x with the product written out as (ac - bd, ad + bc).
        const double* hs = reinterpret_cast<const double*>(
            rows.data() + (static_cast<size_t>(r) * cfg_.n_ue + l) * cfg_.n_sc);
        const double* xs = reinterpret_cast<const double*>(grids_[l][s].data());
        for (size_t sc = 0; sc < cfg_.n_sc; ++sc) {
          const double hr = hs[2 * sc], hi = hs[2 * sc + 1];
          const double xr = xs[2 * sc], xi = xs[2 * sc + 1];
          ys[2 * sc] += hr * xr - hi * xi;
          ys[2 * sc + 1] += hr * xi + hi * xr;
        }
      }
      antenna_noise.add((static_cast<uint64_t>(s) * cfg_.n_rx + r) * cfg_.n_sc,
                        noise_amp, {y.data(), cfg_.n_sc});
      ref::ifft_inplace(y);
      for (auto& v : y) v /= time_norm;
    }
  }

  // Ideal code-separated pilot observations in the beam domain, against
  // h_eff = beam_channel(), each with its separated noise added last.
  pilot_obs_.resize(cfg_.n_ue);
  const double pilot_noise_amp = std::sqrt(cfg_.sigma2 / (2.0 * cfg_.n_ue));
  const size_t n_obs = static_cast<size_t>(cfg_.n_sc) * cfg_.n_beams;
  for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
    pilot_obs_[l].resize(n_obs);
    for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
      for (uint32_t b = 0; b < cfg_.n_beams; ++b) {
        pilot_obs_[l][static_cast<size_t>(sc) * cfg_.n_beams + b] =
            h_eff[(static_cast<size_t>(sc) * cfg_.n_beams + b) * cfg_.n_ue + l] *
            pilots_[l][sc];
      }
    }
    pilot_noise.add(l * n_obs, pilot_noise_amp, pilot_obs_[l]);
  }
}

void Uplink_scenario::channel_rows_into(uint32_t s,
                                        std::vector<cd>& rows) const {
  rows.resize(static_cast<size_t>(cfg_.n_rx) * cfg_.n_ue * cfg_.n_sc);
  for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
    for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
      chan_.row_into(
          s, r, l,
          {rows.data() + (static_cast<size_t>(r) * cfg_.n_ue + l) * cfg_.n_sc,
           cfg_.n_sc});
    }
  }
}

void Uplink_scenario::beam_channel_into(const std::vector<cd>& rows,
                                        std::vector<cd>& h_eff) const {
  // One (beam, UE) row at a time across sub-carriers, antennas summed in
  // index order from +0, then scattered into the [sc][b][l] layout.
  h_eff.resize(static_cast<size_t>(cfg_.n_sc) * cfg_.n_beams * cfg_.n_ue);
  std::vector<double> acc_re(cfg_.n_sc), acc_im(cfg_.n_sc);
  for (uint32_t b = 0; b < cfg_.n_beams; ++b) {
    for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
      std::fill(acc_re.begin(), acc_re.end(), 0.0);
      std::fill(acc_im.begin(), acc_im.end(), 0.0);
      for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
        cmac_split(codebook_[static_cast<size_t>(r) * cfg_.n_beams + b],
                   rows.data() +
                       (static_cast<size_t>(r) * cfg_.n_ue + l) * cfg_.n_sc,
                   acc_re.data(), acc_im.data(), cfg_.n_sc);
      }
      for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
        h_eff[(static_cast<size_t>(sc) * cfg_.n_beams + b) * cfg_.n_ue + l] =
            cd{acc_re[sc], acc_im[sc]};
      }
    }
  }
}

uint32_t Uplink_scenario::n_mean_symbols() const {
  return cfg_.profile == Channel_profile::flat
             ? 1
             : std::max(1u, cfg_.n_pilot_symb);
}

void Uplink_scenario::fold_beam_channel(uint32_t s,
                                        const std::vector<cd>& rows,
                                        std::vector<cd>& mean,
                                        std::vector<cd>& scratch) const {
  if (s == 0) {
    beam_channel_into(rows, mean);
  } else {
    beam_channel_into(rows, scratch);
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += scratch[i];
  }
  // Flat: symbol 0 is the channel, undivided, so the pre-profile result
  // holds bit for bit (no mean-of-identical rounding).
  if (cfg_.profile != Channel_profile::flat && s + 1 == n_mean_symbols()) {
    for (auto& v : mean) v /= static_cast<double>(n_mean_symbols());
  }
}

std::vector<cd> Uplink_scenario::beam_channel() const {
  // Flat: time-invariant - symbol 0 IS the channel.  TDL: the
  // code-separated pilot observation measures the mean of the fading over
  // the pilot symbols, so that mean is the channel the CHE should recover
  // (and the one channel_mse scores against).
  std::vector<cd> rows, mean, scratch;
  for (uint32_t s = 0; s < n_mean_symbols(); ++s) {
    channel_rows_into(s, rows);
    fold_beam_channel(s, rows, mean, scratch);
  }
  return mean;
}

const std::vector<cd>& Uplink_scenario::pilot_obs_beam(uint32_t l) const {
  return pilot_obs_[l];
}

void gather_subcarrier_rows(const std::vector<std::vector<cd>>& freq,
                            std::vector<cd>& ft, uint32_t n_rx,
                            size_t row_begin, size_t row_end) {
  for (size_t scx = row_begin; scx < row_end; ++scx) {
    for (uint32_t r = 0; r < n_rx; ++r) {
      ft[scx * n_rx + r] = freq[r][scx];
    }
  }
}

void che_rows(const Uplink_scenario& sc, std::vector<cd>& h_hat,
              uint64_t row_begin, uint64_t row_end) {
  const auto& cfg = sc.config();
  for (uint64_t i = row_begin; i < row_end; ++i) {
    const uint32_t l = static_cast<uint32_t>(i / cfg.n_sc);
    const uint32_t scx = static_cast<uint32_t>(i % cfg.n_sc);
    const cd p = sc.pilot(l)[scx];
    const std::vector<cd>& obs = sc.pilot_obs_beam(l);
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      h_hat[(static_cast<size_t>(scx) * cfg.n_beams + b) * cfg.n_ue + l] =
          obs[static_cast<size_t>(scx) * cfg.n_beams + b] * std::conj(p) /
          std::norm(p);
    }
  }
}

void ne_terms(const Uplink_scenario& sc, const common::Ws_grid<cd>& beams,
              const std::vector<cd>& h_hat, std::vector<double>& terms,
              uint64_t item_begin, uint64_t item_end) {
  const auto& cfg = sc.config();
  for (uint64_t i = item_begin; i < item_end; ++i) {
    const uint32_t s = static_cast<uint32_t>(i / cfg.n_sc);
    const uint32_t scx = static_cast<uint32_t>(i % cfg.n_sc);
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      cd yhat{0, 0};
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        yhat +=
            h_hat[(static_cast<size_t>(scx) * cfg.n_beams + b) * cfg.n_ue + l] *
            sc.pilot(l)[scx];
      }
      terms[i * cfg.n_beams + b] = std::norm(
          beams.at(s, static_cast<size_t>(scx) * cfg.n_beams + b) - yhat);
    }
  }
}

void mimo_items(const Uplink_scenario& sc, const common::Ws_grid<cd>& beams,
                const std::vector<cd>& h_hat, double sigma2_hat,
                std::vector<std::vector<cd>>& symbols,
                std::vector<double>& evm_terms, Mimo_ws& ws,
                uint64_t item_begin, uint64_t item_end) {
  const auto& cfg = sc.config();
  common::ws_grow(ws.h, static_cast<size_t>(cfg.n_beams) * cfg.n_ue);
  common::ws_grow(ws.y, cfg.n_beams);
  common::ws_grow(ws.x, cfg.n_ue);
  for (uint64_t i = item_begin; i < item_end; ++i) {
    const uint32_t s = cfg.n_pilot_symb + static_cast<uint32_t>(i / cfg.n_sc);
    const uint32_t scx = static_cast<uint32_t>(i % cfg.n_sc);
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        ws.h[static_cast<size_t>(b) * cfg.n_ue + l] =
            h_hat[(static_cast<size_t>(scx) * cfg.n_beams + b) * cfg.n_ue + l];
      }
    }
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      ws.y[b] = beams.at(s, static_cast<size_t>(scx) * cfg.n_beams + b);
    }
    ref::lmmse_into(std::span<const ref::cd>{ws.h.data(),
                                             static_cast<size_t>(cfg.n_beams) *
                                                 cfg.n_ue},
                    std::span<const ref::cd>{ws.y.data(), cfg.n_beams},
                    cfg.n_beams, cfg.n_ue, sigma2_hat, ws.lmmse,
                    std::span<ref::cd>{ws.x.data(), cfg.n_ue});
    for (uint32_t l = 0; l < cfg.n_ue; ++l) {
      const cd eq = ws.x[l] / cfg.ue_power;  // undo tx power scaling
      symbols[l][i] = eq;
      const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
      evm_terms[i * cfg.n_ue + l] = std::norm(eq - want);
    }
  }
}

double mean_of_terms(const std::vector<double>& terms) {
  double acc = 0.0;
  for (const double t : terms) acc += t;
  return acc / static_cast<double>(terms.size());
}

double evm_from_terms(const std::vector<double>& evm_terms) {
  return std::sqrt(mean_of_terms(evm_terms));
}

double payload_ber(const Uplink_scenario& sc,
                   const std::vector<std::vector<uint8_t>>& bits) {
  uint64_t nerr = 0, nbits = 0;
  for (uint32_t l = 0; l < sc.config().n_ue; ++l) {
    const auto& want = sc.tx_bits(l);
    PP_CHECK(want.size() == bits[l].size(), "bit count mismatch");
    for (size_t i = 0; i < want.size(); ++i) {
      nerr += want[i] != bits[l][i];
      ++nbits;
    }
  }
  return static_cast<double>(nerr) / static_cast<double>(nbits);
}

Receiver_result golden_receive(const Uplink_scenario& sc) {
  const auto& cfg = sc.config();
  const double fft_comp = std::sqrt(static_cast<double>(cfg.fft_size));
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  Receiver_result res;

  // 1) OFDM demodulation + 2) beamforming, per symbol: beam grid row s is
  // [sc * beam].
  common::Ws_grid<cd> beams(cfg.n_symb,
                            static_cast<size_t>(cfg.n_sc) * cfg.n_beams);
  std::vector<std::vector<cd>> freq(cfg.n_rx);
  std::vector<cd> ft(static_cast<size_t>(cfg.n_sc) * cfg.n_rx);
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    for (uint32_t r = 0; r < cfg.n_rx; ++r) {
      // fft() scales by 1/N and the transmitter normalized by 1/sqrt(N), so
      // one sqrt(N) factor restores the frequency-domain grid.
      ref::fft_into(sc.antenna_time(s, r), freq[r]);
      for (auto& v : freq[r]) v *= fft_comp;
    }
    gather_subcarrier_rows(freq, ft, cfg.n_rx, 0, cfg.n_sc);
    ref::matmul_rows(ft, sc.codebook(), beams.row(s), cfg.n_sc, cfg.n_rx,
                     cfg.n_beams, 0, cfg.n_sc);
  }

  // 3) Channel estimation (block LS on code-separated pilot observations).
  std::vector<cd> h_hat(static_cast<size_t>(cfg.n_sc) * cfg.n_beams *
                        cfg.n_ue);
  che_rows(sc, h_hat, 0, static_cast<uint64_t>(cfg.n_ue) * cfg.n_sc);

  // 4) Noise estimation from the pilot symbols (terms summed in index
  // order, which is the (symbol, sub-carrier, beam) walk).
  std::vector<double> sig_terms(static_cast<uint64_t>(cfg.n_pilot_symb) *
                                cfg.n_sc * cfg.n_beams);
  ne_terms(sc, beams, h_hat, sig_terms, 0,
           static_cast<uint64_t>(cfg.n_pilot_symb) * cfg.n_sc);
  res.sigma2_hat = mean_of_terms(sig_terms);

  // 5) MIMO LMMSE per sub-carrier and data symbol (Cholesky + solves); EVM
  // terms summed in index order = the (symbol, sub-carrier, UE) walk.
  const uint64_t n_items = static_cast<uint64_t>(n_data) * cfg.n_sc;
  res.symbols.assign(cfg.n_ue, std::vector<cd>(n_items));
  std::vector<double> evm_terms(n_items * cfg.n_ue);
  Mimo_ws mimo;
  mimo_items(sc, beams, h_hat, res.sigma2_hat, res.symbols, evm_terms, mimo,
             0, n_items);
  res.evm = evm_from_terms(evm_terms);

  // 6) Demodulate and count bit errors.  tx bits are ordered
  // [data_symbol][sc]; symbols are indexed in the same order, so the direct
  // compare inside payload_ber is valid.
  res.bits.resize(cfg.n_ue);
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    qam_demodulate_into(cfg.qam, res.symbols[l], res.bits[l]);
  }
  res.ber = payload_ber(sc, res.bits);

  // CHE quality vs. the true beam channel.
  const auto h_true = sc.beam_channel();
  PP_CHECK(h_hat.size() == h_true.size(), "channel estimate shape mismatch");
  double ch_err = 0.0;
  for (size_t i = 0; i < h_hat.size(); ++i) {
    ch_err += std::norm(h_hat[i] - h_true[i]);
  }
  res.channel_mse = ch_err / static_cast<double>(h_hat.size());
  return res;
}

}  // namespace pp::phy
