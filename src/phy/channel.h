// Uplink channel substrate: pluggable fading profiles between each UE and
// each receive antenna, AWGN at the antennas, and a DFT beam codebook.
// This replaces the over-the-air data the paper's gNB would see (see
// DESIGN.md substitutions).
//
// Profiles (channel_profile_names(), selectable per cell via --channel):
//   flat    per-sub-carrier Rayleigh block fading, constant over the slot -
//           the original model, one Rng::cnormal() per (block, antenna,
//           UE) from the caller's RNG, in that order.
//   tdl-a   3GPP TR 38.901 TDL-A tapped-delay-line fading (23 taps, NLOS).
//   tdl-c   3GPP TR 38.901 TDL-C tapped-delay-line fading (24 taps, NLOS).
//
// TDL determinism contract (docs/DETERMINISM.md "Channel profiles & HARQ
// determinism"): UE l's tap realizations are drawn from a private stream
// seeded Rng::derive_seed(cfg.seed, kUeStream + l) - never from the shared
// scenario RNG - so they are independent of n_ue and of everything else the
// scenario draws.  Within a stream the draw order is symbol-major (initial
// taps, then one innovation block per symbol), so a channel over more
// symbols extends a shorter one exactly like Traffic_source extends a
// shorter trace: the common prefix is bit-identical.  Doppler evolution is
// a per-tap AR(1) (Gauss-Markov) recursion whose coefficient depends only
// on the UE index, never on the layer count.
#ifndef PUSCHPOOL_PHY_CHANNEL_H
#define PUSCHPOOL_PHY_CHANNEL_H

#include <complex>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phy/qam.h"

namespace pp::phy {

enum class Channel_profile : uint8_t { flat = 0, tdl_a, tdl_c };

// Registered profile names, in listing order (matching the enum).
std::vector<std::string> channel_profile_names();

// True if `name` is a registered channel profile.
bool is_channel_profile_name(const std::string& name);

// Name -> enum; aborts (PP_CHECK) on an unknown name - CLI layers validate
// first (bench_util.h channel_by_name) and exit 2 with the registered list.
Channel_profile channel_profile_from_name(const std::string& name);

// Enum -> registered name.
const char* channel_profile_name(Channel_profile profile);

// One TDL tap: excess delay in delay-spread units and linear power.  The
// registry tables are normalized so powers sum to 1, keeping the per-path
// receive power of every profile equal to the flat model's gain^2.
struct Tdl_tap {
  double delay = 0.0;
  double power = 1.0;
};

// The tap table of a TDL profile (aborts on `flat` - it has no taps).
const std::vector<Tdl_tap>& tdl_taps(Channel_profile profile);

struct Channel_config {
  uint32_t n_sc = 256;     // sub-carriers
  uint32_t n_rx = 8;       // receive antennas
  uint32_t n_ue = 2;       // transmitting UEs
  uint32_t coherence = 16; // sub-carriers per fading block (flat profile)
  double gain = 1.0;       // per-path amplitude scale
  double sigma2 = 1e-4;    // AWGN variance per antenna

  // ---- profile layer (defaults reproduce the pre-profile model) --------
  Channel_profile profile = Channel_profile::flat;
  uint32_t n_symb = 1;         // OFDM symbols the fading trace covers (TDL)
  double doppler_hz = 0.0;     // base Doppler; UE l evolves at (1 + l/2) x
  double delay_spread = 4.0;   // TDL delay spread in sub-carrier-grid samples
  double symbol_s = 1e-3 / 14; // OFDM symbol duration driving the AR(1) step
  uint64_t seed = 0;           // root of the per-UE TDL tap streams
};

class Channel {
 public:
  // `rng` feeds the flat profile's coefficient draw (the legacy order); TDL
  // profiles draw nothing from it - their realizations come from private
  // derive_seed(cfg.seed, kUeStream + l) streams.
  Channel(const Channel_config& cfg, common::Rng& rng);

  // Frequency response antenna r <- UE l at sub-carrier sc during OFDM
  // symbol s.  The flat profile is time-invariant (s is ignored); TDL
  // profiles evolve per symbol under the per-UE Doppler.
  cd h(uint32_t s, uint32_t sc, uint32_t r, uint32_t l) const;

  // The same response on all n_sc sub-carriers, written to out (n_sc
  // entries, sub-carrier order).  The flat profile copies its one stored
  // symbol; TDL profiles sum the row on demand - no [s][r][l][sc] response
  // is ever stored - with every element starting from +0 and adding the
  // taps in table order, four sub-carriers per AVX2 vector on hosts that
  // have it and in plain doubles otherwise (bit-identical either way).
  void row_into(uint32_t s, uint32_t r, uint32_t l, std::span<cd> out) const;

  const Channel_config& config() const { return cfg_; }

  // ---- TDL introspection (tests pin the realizations) -------------------
  uint32_t n_taps() const { return n_taps_; }
  // Complex gain of tap t, antenna r <- UE l, at symbol s (TDL only).
  cd tap_gain(uint32_t s, uint32_t t, uint32_t r, uint32_t l) const;
  // AR(1) coefficient of UE l's Doppler recursion: exp(-2 pi f_d(l) T_sym)
  // with f_d(l) = doppler_hz * (1 + l / 2).
  static double doppler_rho(const Channel_config& cfg, uint32_t l);

  // Per-UE TDL stream offset: UE l draws from
  // derive_seed(cfg.seed, kUeStream + l).
  static constexpr uint64_t kUeStream = uint64_t{1} << 52;

 private:
  // Offset of row (r, l) in the flat profile's stored response.
  size_t flat_offset(uint32_t r, uint32_t l) const {
    return (static_cast<size_t>(r) * cfg_.n_ue + l) * cfg_.n_sc;
  }
  // Offset of tap t, antenna r <- UE l, symbol s in taps_.
  size_t tap_offset(uint32_t s, uint32_t t, uint32_t r, uint32_t l) const {
    return ((static_cast<size_t>(s) * n_taps_ + t) * cfg_.n_rx + r) *
               cfg_.n_ue +
           l;
  }

  Channel_config cfg_;
  uint32_t n_taps_ = 0;        // TDL tap count
  std::vector<cd> taps_;       // TDL: [s][t][r][l]
  // TDL: tap delay phase ramps as split rows [t][re, im][sc] - tap t's real
  // parts at 2 t n_sc, its imaginary parts right after - so row_into()
  // loads whole vectors of either part.
  std::vector<double> phase_;
  std::vector<cd> flat_;       // flat: the one symbol's response [r][l][sc]
};

// acc[i] += g * x[i] for i < n, on split real and imaginary accumulators:
// the std::complex product (ac - bd, ad + bc) written out so the loop
// vectorizes, with every element's operations unchanged.
inline void cmac_split(cd g, const cd* x, double* acc_re, double* acc_im,
                       size_t n) {
  const double gr = g.real(), gi = g.imag();
  const double* xs = reinterpret_cast<const double*>(x);
  for (size_t i = 0; i < n; ++i) {
    const double xr = xs[2 * i], xi = xs[2 * i + 1];
    acc_re[i] += gr * xr - gi * xi;
    acc_im[i] += gr * xi + gi * xr;
  }
}

// The two kernels behind Channel::row_into's TDL sum, declared so a test
// can pin them against each other.  Both compute out[sc] = sum_t g_t
// phase_t[sc] with g_t = g[t * g_stride] and tap t's ramp in the split rows
// of `phase` (re at 2 t n_sc, im right after), every element starting from
// +0 and adding the taps in table order with (ac - bd, ad + bc) products.
// tdl_row_scalar covers sub-carriers [sc0, n_sc) in plain doubles;
// tdl_row_avx2 covers the prefix of whole 16-sub-carrier blocks, four per
// AVX2 vector without FMA, and returns its length (0 on hosts without AVX2).
void tdl_row_scalar(const cd* g, size_t g_stride, uint32_t n_taps,
                    const double* phase, uint32_t n_sc, uint32_t sc0,
                    cd* out);
uint32_t tdl_row_avx2(const cd* g, size_t g_stride, uint32_t n_taps,
                      const double* phase, uint32_t n_sc, cd* out);

// Orthonormal DFT beamforming codebook: n_rx x n_beams, column b is the
// steering vector exp(-j 2 pi r b / n_rx) / sqrt(n_rx).
std::vector<cd> dft_codebook(uint32_t n_rx, uint32_t n_beams);

}  // namespace pp::phy

#endif  // PUSCHPOOL_PHY_CHANNEL_H
