// Channel-profile layer (phy/channel.h): registry round-trips, the TR
// 38.901 tap tables, and the TDL determinism contract - golden-pinned
// realizations, per-UE stream independence, symbol-prefix stability, the
// AR(1) Doppler recursion, and the flat profile's legacy-RNG-order
// compatibility (docs/DETERMINISM.md "Channel profiles & HARQ
// determinism").
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "phy/channel.h"
#include "phy/uplink.h"

namespace {

using namespace pp;
using phy::Channel;
using phy::Channel_config;
using phy::Channel_profile;

// The golden TDL-A configuration every pinned realization below uses.
Channel_config golden_config() {
  Channel_config cfg;
  cfg.n_sc = 16;
  cfg.n_rx = 2;
  cfg.n_ue = 2;
  cfg.gain = 1.0;
  cfg.sigma2 = 0.0;
  cfg.profile = Channel_profile::tdl_a;
  cfg.n_symb = 3;
  cfg.doppler_hz = 50.0;
  cfg.delay_spread = 4.0;
  cfg.symbol_s = 1e-3 / 14;
  cfg.seed = 7;
  return cfg;
}

Channel make(const Channel_config& cfg, uint64_t rng_seed = 123) {
  common::Rng rng(rng_seed);
  return Channel(cfg, rng);
}

TEST(ChannelProfiles, RegistryListsAllProfilesAndRoundTrips) {
  const auto names = phy::channel_profile_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "flat");
  EXPECT_EQ(names[1], "tdl-a");
  EXPECT_EQ(names[2], "tdl-c");
  for (const auto& n : names) {
    EXPECT_TRUE(phy::is_channel_profile_name(n));
    EXPECT_EQ(phy::channel_profile_name(phy::channel_profile_from_name(n)),
              n);
  }
  EXPECT_FALSE(phy::is_channel_profile_name("rayleigh"));
  EXPECT_EQ(phy::channel_profile_from_name("tdl-c"), Channel_profile::tdl_c);
  EXPECT_DEATH(phy::channel_profile_from_name("rayleigh"),
               "unknown channel profile");
}

TEST(ChannelProfiles, TapTablesMatchTheStandardsShape) {
  const auto& a = phy::tdl_taps(Channel_profile::tdl_a);
  const auto& c = phy::tdl_taps(Channel_profile::tdl_c);
  EXPECT_EQ(a.size(), 23u);  // TR 38.901 Table 7.7.2-1
  EXPECT_EQ(c.size(), 24u);  // TR 38.901 Table 7.7.2-3
  for (const auto* taps : {&a, &c}) {
    double total = 0.0;
    for (const auto& t : *taps) {
      // The standard's tables list taps by number, not monotone delay -
      // only non-negativity is guaranteed.
      EXPECT_GE(t.delay, 0.0);
      EXPECT_GT(t.power, 0.0);
      total += t.power;
    }
    EXPECT_EQ((*taps)[0].delay, 0.0);
    // Normalized so every profile carries the flat model's per-path power.
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  EXPECT_DEATH(phy::tdl_taps(Channel_profile::flat), "no TDL tap table");
}

TEST(ChannelProfiles, FlatProfileDrawsTheLegacyOrderFromTheCallerRng) {
  Channel_config cfg;
  cfg.n_sc = 32;
  cfg.n_rx = 4;
  cfg.n_ue = 3;
  cfg.coherence = 16;
  // The flat profile draws one cnormal() per (coherence block, antenna,
  // UE) and nothing else: replaying that many draws on a twin RNG must
  // leave both generators in the same state.
  common::Rng used(42), twin(42);
  const Channel ch(cfg, used);
  const size_t blocks = (cfg.n_sc + cfg.coherence - 1) / cfg.coherence;
  for (size_t i = 0; i < blocks * cfg.n_rx * cfg.n_ue; ++i) twin.cnormal();
  EXPECT_EQ(used.next_u32(), twin.next_u32());
  // And the drawn coefficients land in h() in block/antenna/UE order.
  common::Rng replay(42);
  EXPECT_EQ(ch.h(0, 0, 0, 0), replay.cnormal() * cfg.gain);
}

TEST(ChannelProfiles, TdlDrawsNothingFromTheSharedRng) {
  const Channel_config cfg = golden_config();
  common::Rng used(42), twin(42);
  const Channel ch(cfg, used);
  EXPECT_EQ(used.next_u32(), twin.next_u32());
  EXPECT_GT(ch.n_taps(), 0u);
}

TEST(ChannelProfiles, GoldenPinnedTapAndFrequencyRealizations) {
  // Empirically generated once from the seeded implementation (recorded
  // with the channel rows' AVX2 path forced off) and pinned: any change to
  // the tap draw order, the normal transform, the AR(1) recursion or the
  // delay-to-frequency transform shows up here first.
  const Channel ch = make(golden_config());
  ASSERT_EQ(ch.n_taps(), 23u);
  const auto g000 = ch.tap_gain(0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(g000.real(), -0.10673552348647891);
  EXPECT_DOUBLE_EQ(g000.imag(), -0.092833597780433069);
  const auto g511 = ch.tap_gain(0, 5, 1, 1);
  EXPECT_DOUBLE_EQ(g511.real(), 0.13907281186958714);
  EXPECT_DOUBLE_EQ(g511.imag(), 0.33799707902508702);
  const auto g2 = ch.tap_gain(2, 0, 0, 0);
  EXPECT_DOUBLE_EQ(g2.real(), -0.12345509993320448);
  EXPECT_DOUBLE_EQ(g2.imag(), -0.12943355899774553);
  const auto g22 = ch.tap_gain(2, 22, 1, 0);
  EXPECT_DOUBLE_EQ(g22.real(), -0.0071247496819766068);
  EXPECT_DOUBLE_EQ(g22.imag(), -0.0051557792647471835);
  const auto h0 = ch.h(0, 3, 1, 0);
  EXPECT_DOUBLE_EQ(h0.real(), 0.64544396706682483);
  EXPECT_DOUBLE_EQ(h0.imag(), 0.51702009914821134);
  const auto h2 = ch.h(2, 3, 1, 0);
  EXPECT_DOUBLE_EQ(h2.real(), 0.70373799734356735);
  EXPECT_DOUBLE_EQ(h2.imag(), 0.27023082637723816);
}

TEST(ChannelProfiles, RealizationsArePrefixStableInTheSymbolCount) {
  // A channel over more symbols extends a shorter one bit for bit - the
  // same prefix contract Traffic_source keeps for its arrival streams.
  Channel_config small = golden_config();
  small.n_symb = 4;
  Channel_config big = small;
  big.n_symb = 8;
  const Channel cs = make(small), cb = make(big);
  ASSERT_EQ(cs.n_taps(), cb.n_taps());
  for (uint32_t s = 0; s < small.n_symb; ++s) {
    for (uint32_t t = 0; t < cs.n_taps(); ++t) {
      for (uint32_t r = 0; r < small.n_rx; ++r) {
        for (uint32_t l = 0; l < small.n_ue; ++l) {
          EXPECT_EQ(cs.tap_gain(s, t, r, l), cb.tap_gain(s, t, r, l))
              << "s=" << s << " t=" << t;
        }
      }
    }
    for (uint32_t sc = 0; sc < small.n_sc; ++sc) {
      EXPECT_EQ(cs.h(s, sc, 0, 0), cb.h(s, sc, 0, 0)) << "s=" << s;
    }
  }
}

TEST(ChannelProfiles, PerUeStreamsAreIndependentOfTheLayerCount) {
  // UE l draws from derive_seed(seed, kUeStream + l): adding a layer must
  // not move any existing layer's realization.
  Channel_config one = golden_config();
  one.n_ue = 1;
  Channel_config two = golden_config();
  ASSERT_EQ(two.n_ue, 2u);
  const Channel c1 = make(one), c2 = make(two);
  for (uint32_t s = 0; s < one.n_symb; ++s) {
    for (uint32_t t = 0; t < c1.n_taps(); ++t) {
      for (uint32_t r = 0; r < one.n_rx; ++r) {
        EXPECT_EQ(c1.tap_gain(s, t, r, 0), c2.tap_gain(s, t, r, 0))
            << "s=" << s << " t=" << t << " r=" << r;
      }
    }
  }
}

TEST(ChannelProfiles, DopplerRhoFollowsThePerUeFormula) {
  const Channel_config cfg = golden_config();
  for (uint32_t l = 0; l < 4; ++l) {
    const double fd = cfg.doppler_hz * (1.0 + 0.5 * l);
    EXPECT_DOUBLE_EQ(Channel::doppler_rho(cfg, l),
                     std::exp(-2.0 * M_PI * fd * cfg.symbol_s));
  }
  // Higher layers fade faster; zero Doppler freezes the recursion.
  EXPECT_LT(Channel::doppler_rho(cfg, 1), Channel::doppler_rho(cfg, 0));
  Channel_config still = cfg;
  still.doppler_hz = 0.0;
  EXPECT_EQ(Channel::doppler_rho(still, 3), 1.0);
  const Channel ch = make(still);
  for (uint32_t s = 1; s < still.n_symb; ++s) {
    EXPECT_EQ(ch.tap_gain(s, 0, 0, 0), ch.tap_gain(0, 0, 0, 0));
    EXPECT_EQ(ch.h(s, 5, 1, 1), ch.h(0, 5, 1, 1));
  }
}

TEST(ChannelProfiles, EmpiricalPowerDelayProfileMatchesTheTapTable) {
  // 64 antennas x 4 UEs = 256 i.i.d. samples per tap: the per-tap mean
  // power must track the table entry and the total must come out at
  // gain^2 = 1 (the flat model's per-path power).
  Channel_config cfg = golden_config();
  cfg.n_rx = 64;
  cfg.n_ue = 4;
  cfg.n_symb = 1;
  cfg.doppler_hz = 0.0;
  cfg.seed = 3;
  const Channel ch = make(cfg, 9);
  const auto& taps = phy::tdl_taps(cfg.profile);
  double total = 0.0;
  for (uint32_t t = 0; t < ch.n_taps(); ++t) {
    double power = 0.0;
    for (uint32_t r = 0; r < cfg.n_rx; ++r) {
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        power += std::norm(ch.tap_gain(0, t, r, l));
      }
    }
    power /= static_cast<double>(cfg.n_rx) * cfg.n_ue;
    total += power;
    EXPECT_NEAR(power / taps[t].power, 1.0, 0.35) << "tap " << t;
  }
  EXPECT_NEAR(total, 1.0, 0.1);
}

TEST(ChannelProfiles, ScenarioPayloadIsInvariantAcrossProfilesAndAttempts) {
  for (const auto profile : {Channel_profile::flat, Channel_profile::tdl_a}) {
    phy::Uplink_config cfg;
    cfg.n_sc = 16;
    cfg.fft_size = 16;
    cfg.n_rx = 4;
    cfg.n_beams = 4;
    cfg.n_ue = 2;
    cfg.n_symb = 4;
    cfg.n_pilot_symb = 2;
    cfg.seed = 5;
    cfg.profile = profile;
    cfg.doppler_hz = 20.0;
    const phy::Uplink_scenario sc(cfg);
    // A retransmission carries the SAME transport block under a fresh
    // fade: bits and pilots identical, channel re-realized.
    phy::Uplink_config retx = cfg;
    retx.harq_attempt = 2;
    const phy::Uplink_scenario sc2(retx);
    for (uint32_t l = 0; l < cfg.n_ue; ++l) {
      EXPECT_EQ(sc2.tx_bits(l), sc.tx_bits(l)) << "ue " << l;
      EXPECT_EQ(sc2.pilot(l), sc.pilot(l)) << "ue " << l;
    }
    EXPECT_NE(sc2.channel().h(0, 0, 0, 0), sc.channel().h(0, 0, 0, 0));
  }
}

TEST(ChannelProfiles, TdlChannelMseIsScoredAgainstThePilotMeanChannel) {
  // Regression for the per-profile channel_mse fix: the CHE estimates the
  // mean channel over the pilot symbols, so at zero Doppler (channel
  // frozen) a TDL profile must score a near-noise-floor MSE and decode
  // cleanly at high SNR - frequency selectivity alone is not an error.
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam16;
  cfg.seed = 5;
  cfg.profile = Channel_profile::tdl_a;
  cfg.doppler_hz = 0.0;
  const double gp = cfg.channel_gain * cfg.ue_power;
  cfg.sigma2 = cfg.n_ue * gp * gp * 1e-3;  // 30 dB SNR
  const phy::Uplink_scenario still(cfg);
  const auto r0 = phy::golden_receive(still);
  EXPECT_EQ(r0.ber, 0.0);
  EXPECT_LT(r0.channel_mse, 1e-3);

  // Under fast fading the estimate still tracks the pilot mean (small
  // MSE), while equalizing the moving data symbols with it degrades the
  // decode - channel aging, the HARQ loop's failure source.
  phy::Uplink_config fast = cfg;
  fast.doppler_hz = 400.0;
  const auto r1 = phy::golden_receive(phy::Uplink_scenario(fast));
  EXPECT_LT(r1.channel_mse, 0.05);
  EXPECT_GT(r1.ber, 0.0);
  EXPECT_GT(r1.evm, r0.evm);
}

// The two row kernels behind Channel::row_into, bit for bit: the AVX2
// prefix plus the scalar tail against the scalar kernel alone, over row
// widths below, at and around the 16-sub-carrier block, with both tap
// tables.  On hosts without AVX2 the prefix is empty and the check is
// trivially true.
TEST(ChannelProfiles, Avx2RowsMatchScalarRowsBitForBit) {
  for (const Channel_profile profile :
       {Channel_profile::tdl_a, Channel_profile::tdl_c}) {
    const auto& table = phy::tdl_taps(profile);
    const auto n_taps = static_cast<uint32_t>(table.size());
    for (const uint32_t n_sc : {1u, 15u, 16u, 17u, 100u, 1024u}) {
      // Tap t's gain at g[2 t] (a stride, as in the channel's own layout)
      // and its phase ramp in split rows, re then im.
      common::Rng rng(n_sc);
      std::vector<phy::cd> g(2 * n_taps);
      for (uint32_t t = 0; t < n_taps; ++t) {
        g[2 * t] = rng.cnormal() * std::sqrt(table[t].power);
      }
      std::vector<double> phase(2 * static_cast<size_t>(n_taps) * n_sc);
      for (uint32_t t = 0; t < n_taps; ++t) {
        for (uint32_t sc = 0; sc < n_sc; ++sc) {
          const double ang = -2.0 * M_PI * table[t].delay * 4.0 * sc / n_sc;
          phase[2 * static_cast<size_t>(t) * n_sc + sc] = std::cos(ang);
          phase[(2 * static_cast<size_t>(t) + 1) * n_sc + sc] = std::sin(ang);
        }
      }
      std::vector<phy::cd> scalar(n_sc), lanes(n_sc);
      phy::tdl_row_scalar(g.data(), 2, n_taps, phase.data(), n_sc, 0,
                          scalar.data());
      const uint32_t done =
          phy::tdl_row_avx2(g.data(), 2, n_taps, phase.data(), n_sc,
                            lanes.data());
      EXPECT_EQ(done % 16, 0u);
      EXPECT_LE(done, n_sc);
      phy::tdl_row_scalar(g.data(), 2, n_taps, phase.data(), n_sc, done,
                          lanes.data());
      EXPECT_EQ(std::memcmp(scalar.data(), lanes.data(),
                            n_sc * sizeof(phy::cd)),
                0)
          << phy::channel_profile_name(profile) << " n_sc " << n_sc
          << " (AVX2 prefix " << done << ")";
    }
  }
}

}  // namespace
