// PHY substrate tests: QAM round trips, channel statistics, codebook
// orthogonality, reference FFT, the end-to-end golden receiver, and
// bit-level pins of the reference FFT and of scenario synthesis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "baseline/reference.h"
#include "common/rng.h"
#include "phy/channel.h"
#include "phy/qam.h"
#include "phy/uplink.h"

namespace {

using namespace pp;
using common::Rng;
using phy::cd;
using phy::Qam;

class QamRoundTrip : public ::testing::TestWithParam<Qam> {};

TEST_P(QamRoundTrip, ModDemodIsIdentity) {
  const Qam q = GetParam();
  Rng rng(static_cast<uint64_t>(q));
  std::vector<uint8_t> bits(240 * phy::qam_bits(q));
  for (auto& b : bits) b = rng.uniform() < 0.5 ? 0 : 1;
  const auto syms = phy::qam_modulate(q, bits);
  EXPECT_EQ(phy::qam_demodulate(q, syms), bits);
}

INSTANTIATE_TEST_SUITE_P(Orders, QamRoundTrip,
                         ::testing::Values(Qam::qpsk, Qam::qam16, Qam::qam64,
                                           Qam::qam256));

TEST(Qam, UnitAveragePower) {
  for (Qam q : {Qam::qpsk, Qam::qam16, Qam::qam64, Qam::qam256}) {
    const auto pts = phy::qam_constellation(q);
    double p = 0.0;
    for (const auto& v : pts) p += std::norm(v);
    EXPECT_NEAR(p / pts.size(), 1.0, 1e-9);
  }
}

TEST(Qam, GrayNeighborsDifferInOneBit) {
  const auto pts = phy::qam_constellation(Qam::qam16);
  // Points adjacent on the I axis must differ in exactly one bit.
  for (size_t a = 0; a < pts.size(); ++a) {
    for (size_t b = 0; b < pts.size(); ++b) {
      const bool i_neighbor =
          std::abs(std::abs(pts[a].real() - pts[b].real()) -
                   2.0 / std::sqrt(10.0)) < 1e-9 &&
          std::abs(pts[a].imag() - pts[b].imag()) < 1e-9;
      if (!i_neighbor) continue;
      const auto ba = phy::qam_demodulate(Qam::qam16, {pts[a]});
      const auto bb = phy::qam_demodulate(Qam::qam16, {pts[b]});
      int diff = 0;
      for (size_t i = 0; i < ba.size(); ++i) diff += ba[i] != bb[i];
      EXPECT_EQ(diff, 1);
    }
  }
}

// The slicer as it stood on std::lround: the nearest level, halves away
// from zero, clamped to the constellation.
std::vector<uint8_t> lround_demodulate(Qam q, const std::vector<cd>& symbols) {
  const uint32_t bps = phy::qam_bits(q);
  const uint32_t half = bps / 2;
  const uint32_t levels = 1u << half;
  const double s =
      1.0 / std::sqrt(2.0 * (static_cast<double>(levels) * levels - 1) / 3.0);
  std::vector<uint8_t> bits(symbols.size() * bps);
  for (size_t i = 0; i < symbols.size(); ++i) {
    auto slice = [&](double v) -> uint32_t {
      const double lvl = (v / s + (levels - 1)) / 2.0;
      const long r = std::lround(lvl);
      const uint32_t c = static_cast<uint32_t>(
          std::min<long>(std::max<long>(r, 0), levels - 1));
      return c ^ (c >> 1);
    };
    const uint32_t gi = slice(symbols[i].real());
    const uint32_t gq = slice(symbols[i].imag());
    for (uint32_t b = 0; b < half; ++b) {
      bits[i * bps + b] = (gi >> (half - 1 - b)) & 1;
      bits[i * bps + half + b] = (gq >> (half - 1 - b)) & 1;
    }
  }
  return bits;
}

TEST(Qam, SlicerMatchesLroundSlicerOnEveryOrder) {
  // The libm-free slicer against the lround one, per axis value: random
  // values over and beyond the constellation, +-64 ulps around every
  // decision boundary and clamp edge, signed zeros, NaN, the infinities and
  // values whose level reaches 2^62 and 2^63.  lround of NaN, an infinity
  // or a level outside long is unspecified; x86-64 returns LONG_MIN, which
  // the clamp maps to level 0, and the slicer keeps that mapping on every
  // host.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Qam q : {Qam::qpsk, Qam::qam16, Qam::qam64, Qam::qam256}) {
    const uint32_t levels = 1u << (phy::qam_bits(q) / 2);
    const double top = levels - 1;
    const double s =
        1.0 /
        std::sqrt(2.0 * (static_cast<double>(levels) * levels - 1) / 3.0);
    std::vector<double> v;
    // Level l sits at v = (2l - top) s; edges at every half level from
    // -1/2 to top + 1/2, plus the clamp edges 0 and top and the far levels.
    std::vector<double> edges;
    for (double lvl = -0.5; lvl <= top + 0.5; lvl += 0.5) edges.push_back(lvl);
    for (const double lvl : {0x1p62, 0x1p63, -0x1p62, -0x1p63}) {
      edges.push_back(lvl);
    }
    for (const double lvl : edges) {
      const double at = (2.0 * lvl - top) * s;
      double lo = at, hi = at;
      v.push_back(at);
      for (int u = 0; u < 64; ++u) {
        lo = std::nextafter(lo, -inf);
        hi = std::nextafter(hi, inf);
        v.push_back(lo);
        v.push_back(hi);
      }
    }
    const std::vector<double> special = {0.0,     -0.0,     nan,     -nan,
                                         inf,     -inf,     0x1p62,  -0x1p62,
                                         0x1p63,  -0x1p63,  0x1p64,  1e300};
    v.insert(v.end(), special.begin(), special.end());
    Rng rng(static_cast<uint64_t>(q) + 100);
    for (int i = 0; i < 20000; ++i) v.push_back((rng.uniform() - 0.5) * 4.0);
    // Every value on both axes, against a shifted partner.
    std::vector<cd> syms;
    for (size_t i = 0; i < v.size(); ++i) {
      syms.emplace_back(v[i], v[(i * 7 + 3) % v.size()]);
    }
    std::vector<uint8_t> got;
    phy::qam_demodulate_into(q, syms, got);
    const auto want = lround_demodulate(q, syms);
    const uint32_t bps = phy::qam_bits(q);
    auto lround_defined = [&](double x) {
      return std::abs((x / s + top) / 2.0) < 0x1p63;  // false for NaN
    };
    size_t compared = 0;
    for (size_t i = 0; i < syms.size(); ++i) {
#if !defined(__x86_64__)
      if (!lround_defined(syms[i].real()) || !lround_defined(syms[i].imag())) {
        continue;
      }
#endif
      ++compared;
      for (uint32_t b = 0; b < bps; ++b) {
        ASSERT_EQ(got[i * bps + b], want[i * bps + b])
            << "order " << static_cast<uint32_t>(q) << " symbol " << syms[i]
            << " bit " << b;
      }
    }
    EXPECT_GT(compared, 20000u);
    // NaN, +inf and levels from 2^63 up slice to level 0 (all-zero bits).
    for (const double x : {nan, inf, 0x1p64, 1e300}) {
      ASSERT_FALSE(lround_defined(x));
      const auto bits = phy::qam_demodulate(q, {cd{x, x}});
      EXPECT_EQ(bits, std::vector<uint8_t>(bps, 0)) << x;
    }
  }
}

TEST(RefFft, MatchesDft) {
  Rng rng(5);
  std::vector<ref::cd> x(128);
  for (auto& v : x) v = rng.cnormal();
  const auto a = ref::fft(x);
  const auto b = ref::dft(x);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-9);
  }
}

TEST(RefFft, IfftInverts) {
  Rng rng(6);
  std::vector<ref::cd> x(256);
  for (auto& v : x) v = rng.cnormal();
  const auto y = ref::fft(ref::ifft(x));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
  }
}

// The std::complex radix-2 FFT the reference kernels were first written
// as, kept here verbatim as the bit-level oracle: twiddles by incremental
// product, one butterfly loop per stage, 1/N scaling by complex division.
std::vector<ref::cd> legacy_twiddles(size_t len, bool inverse) {
  const double ang = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
  const ref::cd wl{std::cos(ang), std::sin(ang)};
  std::vector<ref::cd> t(len / 2);
  ref::cd w{1.0, 0.0};
  for (size_t j = 0; j < len / 2; ++j) {
    t[j] = w;
    w *= wl;
  }
  return t;
}

void legacy_stage(std::vector<ref::cd>& a, size_t len, bool inverse,
                  size_t block_begin, size_t block_end) {
  const std::vector<ref::cd> tw = legacy_twiddles(len, inverse);
  for (size_t blk = block_begin; blk < block_end; ++blk) {
    const size_t i = blk * len;
    for (size_t j = 0; j < len / 2; ++j) {
      const ref::cd u = a[i + j];
      const ref::cd v = a[i + j + len / 2] * tw[j];
      a[i + j] = u + v;
      a[i + j + len / 2] = u - v;
    }
  }
}

std::vector<ref::cd> legacy_fft(std::vector<ref::cd> a, bool inverse) {
  ref::fft_bit_reverse(a);
  for (size_t len = 2; len <= a.size(); len <<= 1) {
    legacy_stage(a, len, inverse, 0, a.size() / len);
  }
  if (!inverse) {
    for (auto& v : a) v /= static_cast<double>(a.size());
  }
  return a;
}

bool same_bits(const std::vector<ref::cd>& a, const std::vector<ref::cd>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(ref::cd)) == 0;
}

TEST(RefFft, BitIdenticalToComplexButterfly) {
  Rng rng(9);
  for (size_t n = 2; n <= 4096; n <<= 1) {
    std::vector<ref::cd> x(n);
    for (auto& v : x) v = rng.cnormal();
    // A negative zero in the input: its sign must propagate exactly as in
    // the complex loop.
    x[0] = ref::cd{-0.0, 3.0};
    EXPECT_TRUE(same_bits(ref::fft(x), legacy_fft(x, false))) << "n=" << n;
    EXPECT_TRUE(same_bits(ref::ifft(x), legacy_fft(x, true))) << "n=" << n;
    std::vector<ref::cd> y(3, ref::cd{7.0, 7.0});  // stale, wrong-sized
    ref::fft_into(x, y);
    EXPECT_TRUE(same_bits(y, legacy_fft(x, false))) << "n=" << n;

    // Partial stage ranges: each stage split at an uneven block, both
    // halves applied separately, and compared after every half.
    for (const bool inverse : {false, true}) {
      std::vector<ref::cd> a = x, b = x;
      ref::fft_bit_reverse(a);
      ref::fft_bit_reverse(b);
      for (size_t len = 2; len <= n; len <<= 1) {
        const size_t blocks = n / len;
        const size_t split = blocks / 3;
        ref::fft_stage_blocks(a, len, inverse, split, blocks);
        legacy_stage(b, len, inverse, split, blocks);
        ASSERT_TRUE(same_bits(a, b)) << "n=" << n << " len=" << len;
        ref::fft_stage_blocks(a, len, inverse, 0, split);
        legacy_stage(b, len, inverse, 0, split);
        ASSERT_TRUE(same_bits(a, b)) << "n=" << n << " len=" << len;
      }
    }
  }
}

TEST(Channel, RayleighUnitVarianceAcrossRealizations) {
  Rng rng(7);
  double acc = 0.0;
  int n = 0;
  for (int trial = 0; trial < 50; ++trial) {
    phy::Channel ch(phy::Channel_config{64, 4, 2, 16, 1.0, 0.0}, rng);
    for (uint32_t sc = 0; sc < 64; sc += 16) {
      for (uint32_t r = 0; r < 4; ++r) {
        for (uint32_t l = 0; l < 2; ++l) {
          acc += std::norm(ch.h(0, sc, r, l));
          ++n;
        }
      }
    }
  }
  EXPECT_NEAR(acc / n, 1.0, 0.1);
}

TEST(Channel, CoherenceBlocksAreConstant) {
  Rng rng(8);
  phy::Channel ch(phy::Channel_config{64, 2, 1, 16, 1.0, 0.0}, rng);
  EXPECT_EQ(ch.h(0, 0, 0, 0), ch.h(0, 15, 0, 0));
  EXPECT_NE(ch.h(0, 0, 0, 0), ch.h(0, 16, 0, 0));
}

TEST(Codebook, ColumnsOrthonormal) {
  const auto b = phy::dft_codebook(8, 4);
  for (uint32_t c1 = 0; c1 < 4; ++c1) {
    for (uint32_t c2 = 0; c2 < 4; ++c2) {
      cd acc{0, 0};
      for (uint32_t r = 0; r < 8; ++r) {
        acc += std::conj(b[r * 4 + c1]) * b[r * 4 + c2];
      }
      EXPECT_NEAR(std::abs(acc), c1 == c2 ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(GoldenReceiver, RecoversAllBitsAtHighSnr) {
  phy::Uplink_config cfg;
  cfg.sigma2 = 1e-8;
  cfg.seed = 42;
  phy::Uplink_scenario sc(cfg);
  const auto res = phy::golden_receive(sc);
  EXPECT_EQ(res.ber, 0.0);
  EXPECT_LT(res.evm, 0.05);
  EXPECT_LT(res.channel_mse, 1e-6);
}

TEST(GoldenReceiver, NoiseEstimateTracksTrueSigma) {
  phy::Uplink_config cfg;
  cfg.sigma2 = 4e-4;
  cfg.seed = 43;
  phy::Uplink_scenario sc(cfg);
  const auto res = phy::golden_receive(sc);
  // NE sees the beam-domain noise (orthonormal codebook preserves variance).
  EXPECT_GT(res.sigma2_hat, cfg.sigma2 * 0.3);
  EXPECT_LT(res.sigma2_hat, cfg.sigma2 * 3.0);
}

TEST(GoldenReceiver, HigherOrderQamNeedsMoreSnr) {
  phy::Uplink_config cfg;
  cfg.qam = Qam::qam256;
  cfg.sigma2 = 1e-8;
  cfg.seed = 44;
  phy::Uplink_scenario sc(cfg);
  EXPECT_EQ(phy::golden_receive(sc).ber, 0.0);

  // At heavy noise, 256-QAM must show errors.
  cfg.sigma2 = 3e-2;
  cfg.seed = 45;
  phy::Uplink_scenario noisy(cfg);
  EXPECT_GT(phy::golden_receive(noisy).ber, 0.0);
}

// ---- scenario synthesis, pinned bit for bit --------------------------------
//
// FNV-1a (64-bit) over the raw bytes of everything a scenario synthesizes,
// one digest per surface.  The expected values were recorded with the
// counter-addressed noise and a build whose AVX2 paths (noise draws and
// channel rows) were forced off, so the plain-double code alone defines
// them; any change to the arithmetic order of the channel response, the
// channel application, the IFFT, the normal transform or the noise
// indexing moves them (docs/DETERMINISM.md §9 rule 5).
struct Synthesis_digest {
  uint64_t time = 0;       // antenna_time(s, r), all symbols and antennas
  uint64_t pilot_obs = 0;  // pilot_obs_beam(l), all UEs
  uint64_t tx_grid = 0;    // tx_grid(l, s), all UEs and symbols
  uint64_t tx_bits = 0;    // tx_bits(l), all UEs
  uint64_t beam = 0;       // beam_channel()
};

class Fnv1a {
 public:
  template <typename T>
  void add(const std::vector<T>& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (size_t i = 0; i < v.size() * sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

Synthesis_digest synthesis_digest(const phy::Uplink_scenario& sc) {
  const auto& cfg = sc.config();
  Fnv1a time, pilot_obs, tx_grid, tx_bits, beam;
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    for (uint32_t r = 0; r < cfg.n_rx; ++r) time.add(sc.antenna_time(s, r));
  }
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    pilot_obs.add(sc.pilot_obs_beam(l));
    for (uint32_t s = 0; s < cfg.n_symb; ++s) tx_grid.add(sc.tx_grid(l, s));
    tx_bits.add(sc.tx_bits(l));
  }
  beam.add(sc.beam_channel());
  return {time.value(), pilot_obs.value(), tx_grid.value(), tx_bits.value(),
          beam.value()};
}

struct Synthesis_case {
  const char* name;
  phy::Uplink_config cfg;
  Synthesis_digest want;
};

// 14-symbol slots with 2 pilot symbols, all bins active unless a case
// narrows n_sc.
phy::Uplink_config synthesis_config(uint32_t fft_size, uint32_t n_ue,
                                    phy::Channel_profile profile,
                                    double doppler_hz, uint64_t seed) {
  phy::Uplink_config cfg;
  cfg.n_sc = fft_size;
  cfg.fft_size = fft_size;
  cfg.n_ue = n_ue;
  cfg.n_symb = 14;
  cfg.n_pilot_symb = 2;
  cfg.sigma2 = 2e-4;
  cfg.profile = profile;
  cfg.doppler_hz = doppler_hz;
  cfg.seed = seed;
  return cfg;
}

std::vector<Synthesis_case> synthesis_cases() {
  using phy::Channel_profile;
  auto flat = [](uint32_t fft, uint32_t n_ue, uint64_t seed) {
    return synthesis_config(fft, n_ue, Channel_profile::flat, 0.0, seed);
  };
  auto narrow = flat(256, 2, 12);
  narrow.n_sc = 192;  // guard bins 192..255 stay empty before the IFFT
  auto flat_harq = flat(64, 2, 15);
  flat_harq.harq_attempt = 1;
  auto tdla_harq = synthesis_config(256, 2, Channel_profile::tdl_a, 10.0, 16);
  tdla_harq.harq_attempt = 1;
  auto flat_quiet = flat(64, 2, 17);
  flat_quiet.sigma2 = 0.0;
  auto tdlc_quiet = synthesis_config(64, 2, Channel_profile::tdl_c, 100.0, 18);
  tdlc_quiet.sigma2 = 0.0;
  // 100 sub-carriers are not a multiple of the channel rows' 16-sub-carrier
  // SIMD block, so both the SIMD prefix and the scalar tail feed the digests.
  auto tdla_ragged = synthesis_config(128, 2, Channel_profile::tdl_a, 30.0, 19);
  tdla_ragged.n_sc = 100;
  return {
      {"flat-64pt-1ue",
       flat(64, 1, 11),
       {0xff65b358b5fbc736, 0xa12896a46b0c139a, 0x20512b768e216c69,
        0x7e745e48014ef22e, 0x760c7723755dc0a5}},
      {"flat-192sc-256pt",
       narrow,
       {0x801b167c63dc8b59, 0xfab63c01f6c02cc5, 0x7f93ebbfcfa18b29,
        0xdcd6ed443b4bfb69, 0xa6e833da433c2965}},
      {"tdla-1024pt-4ue-10hz",
       synthesis_config(1024, 4, Channel_profile::tdl_a, 10.0, 13),
       {0x5f240e42f2920660, 0x2b47a793fe05b87b, 0xa174592f39a905a5,
        0xf7f2543a38f5bbe1, 0x86fa64645e459179}},
      {"tdlc-256pt-3ue-300hz",
       synthesis_config(256, 3, Channel_profile::tdl_c, 300.0, 14),
       {0x2b1dec14e14206d0, 0x9be5b353868639e5, 0x7967541fb672de4d,
        0xf95811d4a02c7f91, 0x0cd885c2682e0db2}},
      {"flat-64pt-harq1",
       flat_harq,
       {0x1127bb6c53f02835, 0xfca20aaeaba3098d, 0xf2330d49cd292311,
        0xed471a614f257595, 0x10385084bd1ad005}},
      {"tdla-256pt-harq1",
       tdla_harq,
       {0xa2a34909cf89945b, 0x7a8f59d51c0d3595, 0x4755540c4bd38709,
        0xf8d6e5b35a31c744, 0x7109f82ce686a5f4}},
      {"flat-64pt-noiseless",
       flat_quiet,
       {0x3225a874359a473a, 0xdfc36ef7162fcced, 0xdf9475e4cb260225,
        0x5337be9f6f6812a0, 0x8a372b011dbfb605}},
      {"tdlc-64pt-noiseless",
       tdlc_quiet,
       {0xdfce50a92fba7a4b, 0x5563b2151d8cd3d3, 0xbca0d274834e4abd,
        0x388a9a84f51cec21, 0xd963fa9b05f2e65e}},
      {"tdla-100sc-128pt",
       tdla_ragged,
       {0xce9f4dafdf4266ff, 0x803698cddf457f64, 0x60a0c37c79183d11,
        0xbcf731c3bb784b19, 0x0c2bccff6f8d833b}},
  };
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(ScenarioSynthesis, DigestsArePinned) {
  for (const auto& c : synthesis_cases()) {
    const Synthesis_digest got = synthesis_digest(phy::Uplink_scenario(c.cfg));
    EXPECT_EQ(hex(got.time), hex(c.want.time)) << c.name << " antenna_time";
    EXPECT_EQ(hex(got.pilot_obs), hex(c.want.pilot_obs))
        << c.name << " pilot_obs_beam";
    EXPECT_EQ(hex(got.tx_grid), hex(c.want.tx_grid)) << c.name << " tx_grid";
    EXPECT_EQ(hex(got.tx_bits), hex(c.want.tx_bits)) << c.name << " tx_bits";
    EXPECT_EQ(hex(got.beam), hex(c.want.beam)) << c.name << " beam_channel";
  }
}

}  // namespace
