#include "phy/channel.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PP_PHY_X86 1
#endif

#include "common/check.h"

namespace pp::phy {

std::vector<std::string> channel_profile_names() {
  return {"flat", "tdl-a", "tdl-c"};
}

bool is_channel_profile_name(const std::string& name) {
  for (const auto& n : channel_profile_names()) {
    if (n == name) return true;
  }
  return false;
}

Channel_profile channel_profile_from_name(const std::string& name) {
  if (name == "flat") return Channel_profile::flat;
  if (name == "tdl-a") return Channel_profile::tdl_a;
  if (name == "tdl-c") return Channel_profile::tdl_c;
  PP_CHECK(false, "unknown channel profile (registered: flat, tdl-a, tdl-c)");
  return Channel_profile::flat;  // unreachable
}

const char* channel_profile_name(Channel_profile profile) {
  switch (profile) {
    case Channel_profile::flat: return "flat";
    case Channel_profile::tdl_a: return "tdl-a";
    case Channel_profile::tdl_c: return "tdl-c";
  }
  PP_CHECK(false, "unknown channel profile enum");
  return "flat";  // unreachable
}

namespace {

// TR 38.901 Table 7.7.2 tap tables: {normalized delay, power dB}.  Powers
// are converted to linear and normalized to sum to 1 once, at first use.
struct Raw_tap {
  double delay;
  double power_db;
};

std::vector<Tdl_tap> normalize(const Raw_tap* raw, size_t n) {
  std::vector<Tdl_tap> taps(n);
  double sum = 0.0;
  for (size_t t = 0; t < n; ++t) {
    taps[t].delay = raw[t].delay;
    taps[t].power = std::pow(10.0, raw[t].power_db / 10.0);
    sum += taps[t].power;
  }
  for (auto& t : taps) t.power /= sum;
  return taps;
}

// TR 38.901 Table 7.7.2-1 (TDL-A, NLOS, 23 taps).
constexpr Raw_tap kTdlA[] = {
    {0.0000, -13.4}, {0.3819, 0.0},   {0.4025, -2.2},  {0.5868, -4.0},
    {0.4610, -6.0},  {0.5375, -8.2},  {0.6708, -9.9},  {0.5750, -10.5},
    {0.7618, -7.5},  {1.5375, -15.9}, {1.8978, -6.6},  {2.2242, -16.7},
    {2.1718, -12.4}, {2.4942, -15.2}, {2.5119, -10.8}, {3.0582, -11.3},
    {4.0810, -12.7}, {4.4579, -16.2}, {4.5695, -18.3}, {4.7966, -18.9},
    {5.0066, -16.6}, {5.3043, -19.9}, {9.6586, -29.7},
};

// TR 38.901 Table 7.7.2-3 (TDL-C, NLOS, 24 taps).
constexpr Raw_tap kTdlC[] = {
    {0.0000, -4.4},  {0.2099, -1.2},  {0.2219, -3.5},  {0.2329, -5.2},
    {0.2176, -2.5},  {0.6366, 0.0},   {0.6448, -2.2},  {0.6560, -3.9},
    {0.6584, -7.4},  {0.7935, -7.1},  {0.8213, -10.7}, {0.9336, -11.1},
    {1.2285, -5.1},  {1.3083, -6.8},  {2.1704, -8.7},  {2.7105, -13.2},
    {4.2589, -13.9}, {4.6003, -13.9}, {5.4902, -15.8}, {5.6077, -17.1},
    {6.3065, -16.0}, {6.6374, -15.7}, {7.0427, -21.6}, {8.6523, -22.8},
};

}  // namespace

// Sub-carrier blocks on stack accumulators: each element starts from +0 and
// adds the taps in table order - the per-element sum's exact sequence -
// while the block loop vectorizes.
void tdl_row_scalar(const cd* g, size_t g_stride, uint32_t n_taps,
                    const double* phase, uint32_t n_sc, uint32_t sc0,
                    cd* out) {
  constexpr uint32_t kBlock = 256;
  for (; sc0 < n_sc; sc0 += kBlock) {
    const uint32_t n = std::min(kBlock, n_sc - sc0);
    double acc_re[kBlock] = {}, acc_im[kBlock] = {};
    for (uint32_t t = 0; t < n_taps; ++t) {
      const double gr = g[t * g_stride].real(), gi = g[t * g_stride].imag();
      const double* xr = phase + 2 * static_cast<size_t>(t) * n_sc + sc0;
      const double* xi = xr + n_sc;
      for (uint32_t i = 0; i < n; ++i) {
        acc_re[i] += gr * xr[i] - gi * xi[i];
        acc_im[i] += gr * xi[i] + gi * xr[i];
      }
    }
    for (uint32_t i = 0; i < n; ++i) out[sc0 + i] = cd{acc_re[i], acc_im[i]};
  }
}

#if defined(PP_PHY_X86)

namespace {

bool avx2_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

// tdl_row_scalar's sum on 16 sub-carriers at a time, four per AVX2 vector:
// the block's real and imaginary accumulators stay in registers across
// every tap.  Compiled for AVX2 without FMA, so each product and sum rounds
// exactly as in tdl_row_scalar.
__attribute__((target("avx2"))) uint32_t row_avx2(const cd* g,
                                                  size_t g_stride,
                                                  uint32_t n_taps,
                                                  const double* phase,
                                                  uint32_t n_sc, cd* out) {
  constexpr uint32_t kVec = 4;  // vectors per block
  const uint32_t done = n_sc - n_sc % (4 * kVec);
  double* o = reinterpret_cast<double*>(out);
  for (uint32_t sc = 0; sc < done; sc += 4 * kVec) {
    __m256d re[kVec], im[kVec];
    for (uint32_t k = 0; k < kVec; ++k) {
      re[k] = _mm256_setzero_pd();
      im[k] = _mm256_setzero_pd();
    }
    for (uint32_t t = 0; t < n_taps; ++t) {
      const __m256d gr = _mm256_set1_pd(g[t * g_stride].real());
      const __m256d gi = _mm256_set1_pd(g[t * g_stride].imag());
      const double* xr = phase + 2 * static_cast<size_t>(t) * n_sc + sc;
      const double* xi = xr + n_sc;
      for (uint32_t k = 0; k < kVec; ++k) {
        const __m256d a = _mm256_loadu_pd(xr + 4 * k);
        const __m256d b = _mm256_loadu_pd(xi + 4 * k);
        re[k] = _mm256_add_pd(
            re[k], _mm256_sub_pd(_mm256_mul_pd(gr, a), _mm256_mul_pd(gi, b)));
        im[k] = _mm256_add_pd(
            im[k], _mm256_add_pd(_mm256_mul_pd(gr, b), _mm256_mul_pd(gi, a)));
      }
    }
    // {re0..re3}, {im0..im3} -> {re0, im0, re1, im1}, {re2, im2, re3, im3}.
    for (uint32_t k = 0; k < kVec; ++k) {
      const __m256d lo = _mm256_unpacklo_pd(re[k], im[k]);
      const __m256d hi = _mm256_unpackhi_pd(re[k], im[k]);
      double* dst = o + 2 * (static_cast<size_t>(sc) + 4 * k);
      _mm256_storeu_pd(dst, _mm256_permute2f128_pd(lo, hi, 0x20));
      _mm256_storeu_pd(dst + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
  }
  return done;
}

}  // namespace

#endif

uint32_t tdl_row_avx2(const cd* g, size_t g_stride, uint32_t n_taps,
                      const double* phase, uint32_t n_sc, cd* out) {
#if defined(PP_PHY_X86)
  if (avx2_supported()) return row_avx2(g, g_stride, n_taps, phase, n_sc, out);
#else
  (void)g, (void)g_stride, (void)n_taps, (void)phase, (void)n_sc, (void)out;
#endif
  return 0;
}

const std::vector<Tdl_tap>& tdl_taps(Channel_profile profile) {
  static const std::vector<Tdl_tap> a =
      normalize(kTdlA, sizeof kTdlA / sizeof kTdlA[0]);
  static const std::vector<Tdl_tap> c =
      normalize(kTdlC, sizeof kTdlC / sizeof kTdlC[0]);
  switch (profile) {
    case Channel_profile::tdl_a: return a;
    case Channel_profile::tdl_c: return c;
    case Channel_profile::flat: break;
  }
  PP_CHECK(false, "the flat profile has no TDL tap table");
  return a;  // unreachable
}

double Channel::doppler_rho(const Channel_config& cfg, uint32_t l) {
  // Per-UE Doppler: UE l moves at (1 + l/2) x the base rate, so layers
  // decorrelate at different speeds.  The rate depends only on l - never on
  // n_ue - preserving per-UE stream independence.
  const double fd = cfg.doppler_hz * (1.0 + 0.5 * static_cast<double>(l));
  return std::exp(-2.0 * M_PI * fd * cfg.symbol_s);
}

Channel::Channel(const Channel_config& cfg, common::Rng& rng) : cfg_(cfg) {
  if (cfg_.profile == Channel_profile::flat) {
    // One coefficient per (block, r, l), drawn in that legacy order and
    // spread over the block's sub-carriers of row (r, l).
    PP_CHECK(cfg_.coherence >= 1, "a fading block spans >= 1 sub-carrier");
    flat_.resize(static_cast<size_t>(cfg_.n_rx) * cfg_.n_ue * cfg_.n_sc);
    for (uint32_t sc0 = 0; sc0 < cfg_.n_sc; sc0 += cfg_.coherence) {
      const uint32_t sc1 = std::min(cfg_.n_sc, sc0 + cfg_.coherence);
      for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
        for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
          cd* row = flat_.data() + flat_offset(r, l);
          std::fill(row + sc0, row + sc1, rng.cnormal() * cfg_.gain);
        }
      }
    }
    return;
  }

  PP_CHECK(cfg_.n_symb >= 1, "a TDL trace covers at least one symbol");
  PP_CHECK(cfg_.delay_spread > 0.0, "TDL delay spread must be positive");
  const auto& table = tdl_taps(cfg_.profile);
  n_taps_ = static_cast<uint32_t>(table.size());
  taps_.resize(static_cast<size_t>(cfg_.n_symb) * n_taps_ * cfg_.n_rx *
               cfg_.n_ue);

  // Per-UE private streams, symbol-major draw order: the initial (t, r)
  // block, then one innovation block per later symbol.  A longer trace
  // therefore extends a shorter one without disturbing its prefix, and UE
  // l's realization is independent of every other UE's presence.
  for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
    common::Rng ue_rng(common::Rng::derive_seed(cfg_.seed, kUeStream + l));
    const double rho = doppler_rho(cfg_, l);
    const double innov = std::sqrt(std::max(0.0, 1.0 - rho * rho));
    for (uint32_t t = 0; t < n_taps_; ++t) {
      const double amp = std::sqrt(table[t].power) * cfg_.gain;
      for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
        taps_[tap_offset(0, t, r, l)] = ue_rng.cnormal() * amp;
      }
    }
    for (uint32_t s = 1; s < cfg_.n_symb; ++s) {
      for (uint32_t t = 0; t < n_taps_; ++t) {
        const double amp = std::sqrt(table[t].power) * cfg_.gain;
        for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
          taps_[tap_offset(s, t, r, l)] =
              taps_[tap_offset(s - 1, t, r, l)] * rho +
              ue_rng.cnormal() * (amp * innov);
        }
      }
    }
  }

  // Frequency response: H(s, sc, r, l) = sum_t g_t exp(-j 2 pi sc tau_t /
  // n_sc) with tau_t the tap's excess delay in sub-carrier-grid samples.
  // Only the phase ramps are stored, shared across antennas and UEs;
  // row_into() sums the response on demand.
  phase_.resize(2 * static_cast<size_t>(n_taps_) * cfg_.n_sc);
  for (uint32_t t = 0; t < n_taps_; ++t) {
    const double tau = table[t].delay * cfg_.delay_spread;
    double* re = phase_.data() + 2 * static_cast<size_t>(t) * cfg_.n_sc;
    double* im = re + cfg_.n_sc;
    for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
      const double ang =
          -2.0 * M_PI * tau * static_cast<double>(sc) / cfg_.n_sc;
      re[sc] = std::cos(ang);
      im[sc] = std::sin(ang);
    }
  }
}

cd Channel::h(uint32_t s, uint32_t sc, uint32_t r, uint32_t l) const {
  std::vector<cd> row(cfg_.n_sc);
  row_into(s, r, l, row);
  return row[sc];
}

void Channel::row_into(uint32_t s, uint32_t r, uint32_t l,
                       std::span<cd> out) const {
  PP_CHECK(out.size() == cfg_.n_sc, "a channel row spans n_sc sub-carriers");
  if (cfg_.profile == Channel_profile::flat) {
    const cd* row = flat_.data() + flat_offset(r, l);
    std::copy(row, row + cfg_.n_sc, out.begin());
    return;
  }
  const cd* g = &taps_[tap_offset(s, 0, r, l)];
  const size_t g_stride = tap_offset(0, 1, 0, 0);
  const uint32_t sc0 =
      tdl_row_avx2(g, g_stride, n_taps_, phase_.data(), cfg_.n_sc, out.data());
  tdl_row_scalar(g, g_stride, n_taps_, phase_.data(), cfg_.n_sc, sc0,
                 out.data());
}

cd Channel::tap_gain(uint32_t s, uint32_t t, uint32_t r, uint32_t l) const {
  PP_CHECK(cfg_.profile != Channel_profile::flat,
           "the flat profile has no taps");
  PP_CHECK(s < cfg_.n_symb && t < n_taps_ && r < cfg_.n_rx && l < cfg_.n_ue,
           "tap index out of range");
  return taps_[tap_offset(s, t, r, l)];
}

std::vector<cd> dft_codebook(uint32_t n_rx, uint32_t n_beams) {
  std::vector<cd> b(static_cast<size_t>(n_rx) * n_beams);
  const double s = 1.0 / std::sqrt(static_cast<double>(n_rx));
  for (uint32_t r = 0; r < n_rx; ++r) {
    for (uint32_t q = 0; q < n_beams; ++q) {
      const double ang = -2.0 * M_PI * static_cast<double>(r) * q /
                         static_cast<double>(n_rx);
      b[static_cast<size_t>(r) * n_beams + q] = cd{std::cos(ang), std::sin(ang)} * s;
    }
  }
  return b;
}

}  // namespace pp::phy
