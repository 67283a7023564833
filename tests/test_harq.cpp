// HARQ chase combining (runtime/harq.h) and the scheduler's
// retransmission loop (runtime/scheduler.h, max_harq > 0): hand-walked
// combiner cases where the symbol average can be followed by eye, the
// max_harq = 0 compatibility guarantee, and the retransmission schedule /
// verdict accounting on a fading traffic mix.
#include <gtest/gtest.h>

#include "phy/qam.h"
#include "runtime/harq.h"
#include "runtime/scheduler.h"
#include "runtime/traffic.h"

namespace {

using namespace pp;
using runtime::Harq_combiner;
using runtime::Schedule_result;
using runtime::Scheduler_options;
using runtime::Slot_result;
using runtime::Slot_scheduler;
using runtime::Traffic_cell;
using runtime::Traffic_config;
using runtime::Traffic_source;

// A one-UE QPSK slot small enough to hand-walk: 1 data symbol x 4
// sub-carriers x 2 bits = 8 payload bits.
phy::Uplink_config tiny_config() {
  phy::Uplink_config cfg;
  cfg.n_sc = 4;
  cfg.fft_size = 4;
  cfg.n_rx = 2;
  cfg.n_beams = 2;
  cfg.n_ue = 1;
  cfg.n_symb = 3;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qpsk;
  cfg.seed = 9;
  return cfg;
}

// The constellation points the tiny config's payload modulates to - the
// "perfect equalizer output" attempt.
std::vector<phy::cd> tiny_points(const phy::Uplink_config& cfg) {
  return phy::qam_modulate(cfg.qam, phy::Uplink_scenario(cfg).tx_bits(0));
}

Slot_result attempt(const std::vector<phy::cd>& symbols, double ber) {
  Slot_result r;
  r.symbols = {symbols};
  r.ber = ber;
  return r;
}

std::vector<phy::cd> scaled(const std::vector<phy::cd>& p, double k) {
  auto out = p;
  for (auto& v : out) v *= k;
  return out;
}

TEST(Harq, FirstAttemptFixesTheBaseAndItsBer) {
  const auto cfg = tiny_config();
  const phy::Uplink_scenario sc(cfg);
  Harq_combiner blk(0.0);
  EXPECT_FALSE(blk.decoded());
  EXPECT_EQ(blk.best_ber(), 1.0);
  EXPECT_EQ(blk.absorb(sc, attempt(tiny_points(cfg), 0.25)), 0.25);
  EXPECT_TRUE(blk.decoded());
  EXPECT_EQ(blk.combined(), 1u);
  EXPECT_EQ(blk.best_ber(), 0.25);
}

TEST(Harq, ChaseCombiningRescuesWhatNoSingleAttemptDecodes) {
  // Attempt 1: every symbol negated - all 8 bits wrong, BER 1.  Attempt 2:
  // the true points at 5x amplitude, but REPORTED as BER 1 - so only the
  // combined decode can lower the block's BER.  The running average is
  // (-p + 5p) / 2 = 2p: correct quadrants, combined BER 0.  This pins that
  // absorb() really re-demodulates the average rather than trusting the
  // per-attempt verdicts.
  const auto cfg = tiny_config();
  const phy::Uplink_scenario sc(cfg);
  const auto p = tiny_points(cfg);
  Harq_combiner blk(0.0);
  EXPECT_EQ(blk.absorb(sc, attempt(scaled(p, -1.0), 1.0)), 1.0);
  EXPECT_EQ(blk.absorb(sc, attempt(scaled(p, 5.0), 1.0)), 0.0);
  EXPECT_EQ(blk.combined(), 2u);
  EXPECT_EQ(blk.best_ber(), 0.0);
}

TEST(Harq, BestBerIsMonotoneNonIncreasing) {
  const auto cfg = tiny_config();
  const phy::Uplink_scenario sc(cfg);
  const auto p = tiny_points(cfg);
  Harq_combiner blk(0.0);
  double prev = blk.absorb(sc, attempt(scaled(p, -1.0), 1.0));
  // Garbage attempts can only keep or improve the block's best BER.
  for (const double k : {-3.0, -1.0, 0.5, -2.0}) {
    const double now = blk.absorb(sc, attempt(scaled(p, k), 1.0));
    EXPECT_LE(now, prev);
    prev = now;
  }
}

TEST(Harq, DegradedShapeAttemptsDoNotJoinTheAverage) {
  // An attempt the admission controller re-planned to a different layer
  // count decodes a different transport block: absorb() must leave the
  // accumulator untouched and return the unchanged best BER.
  const auto cfg = tiny_config();
  const auto p = tiny_points(cfg);
  Harq_combiner blk(0.0);
  EXPECT_EQ(blk.absorb(phy::Uplink_scenario(cfg), attempt(p, 0.125)), 0.125);

  phy::Uplink_config degraded = cfg;
  degraded.n_ue = 2;
  Slot_result r;
  r.symbols = {p, p};
  r.ber = 0.0;  // even a perfect degraded decode must not count
  EXPECT_EQ(blk.absorb(phy::Uplink_scenario(degraded), r), 0.125);
  EXPECT_EQ(blk.combined(), 1u);
  EXPECT_EQ(blk.best_ber(), 0.125);
}

// A fading traffic mix whose TDL cell fails often enough at snr 30 to
// exercise retransmission, recovery and exhaustion (channel aging under
// Doppler - tests/test_channel_profiles.cpp pins the mechanism).
Traffic_config fading_traffic(uint64_t n_slots, double doppler = 16.0) {
  Traffic_config cfg;
  cfg.n_slots = n_slots;
  cfg.base_seed = 3;
  Traffic_cell flat;
  flat.mu = 0;
  flat.fft_size = 64;
  flat.n_ue = 1;
  flat.qam = phy::Qam::qpsk;
  flat.load = 0.8;
  Traffic_cell faded;
  faded.mu = 1;
  faded.fft_size = 64;
  faded.n_ue = 2;
  faded.qam = phy::Qam::qam16;
  faded.load = 0.8;
  faded.profile = phy::Channel_profile::tdl_a;
  faded.doppler_hz = doppler;
  Traffic_cell dense;
  dense.mu = 2;
  dense.fft_size = 64;
  dense.n_ue = 4;
  dense.qam = phy::Qam::qam64;
  dense.load = 0.8;
  dense.profile = phy::Channel_profile::tdl_c;
  dense.doppler_hz = doppler;
  cfg.cells = {flat, faded, dense};
  return cfg;
}

TEST(Harq, MaxHarqZeroReproducesThePreHarqEngine) {
  const Traffic_source src(fading_traffic(16));
  Scheduler_options off;
  off.workers = 2;
  const auto base = Slot_scheduler(off).run(src);

  // max_harq = 0 with a threshold set is still the pre-HARQ engine, bit
  // for bit - the threshold only matters once retransmission is allowed.
  Scheduler_options armed = off;
  armed.max_harq = 0;
  armed.harq_ber = 0.5;
  EXPECT_TRUE(base.deterministic_equal(Slot_scheduler(armed).run(src)));
  EXPECT_TRUE(base.harq.empty());
  EXPECT_EQ(base.harq_retx, 0u);

  // A loop that never fires (threshold above every decoded BER) keeps the
  // per-slot surface and adds only the per-job verdict log.
  Scheduler_options lenient = off;
  lenient.max_harq = 3;
  lenient.harq_ber = 1.0;
  const auto idle = Slot_scheduler(lenient).run(src);
  EXPECT_EQ(idle.harq_retx, 0u);
  EXPECT_EQ(idle.harq_recovered, 0u);
  EXPECT_EQ(idle.harq_exhausted, 0u);
  EXPECT_EQ(idle.total_slots, base.total_slots);
  ASSERT_EQ(idle.harq.size(), src.n_slots());
  for (uint64_t i = 0; i < idle.harq.size(); ++i) {
    EXPECT_EQ(idle.harq[i].parent, i);
    EXPECT_EQ(idle.harq[i].attempt, 0u);
    EXPECT_TRUE(idle.harq[i].passed);
  }
  ASSERT_EQ(idle.slots.size(), base.slots.size());
  for (size_t i = 0; i < base.slots.size(); ++i) {
    EXPECT_EQ(idle.slots[i].bits, base.slots[i].bits) << "slot " << i;
    EXPECT_EQ(idle.slots[i].ber, base.slots[i].ber) << "slot " << i;
  }
}

TEST(Harq, RetransmissionScheduleIsBoundedAndAccounted) {
  const Traffic_source src(fading_traffic(24));
  Scheduler_options opt;
  opt.workers = 2;
  opt.max_harq = 2;
  opt.harq_ber = 0.005;
  const auto res = Slot_scheduler(opt).run(src);
  const uint64_t n_initial = src.n_slots();

  // The loop must actually fire at this operating point, with both
  // verdicts represented.
  ASSERT_GT(res.harq_retx, 0u);
  EXPECT_GT(res.harq_recovered, 0u);
  EXPECT_GT(res.harq_exhausted, 0u);
  EXPECT_EQ(res.total_slots, n_initial + res.harq_retx);
  ASSERT_EQ(res.harq.size(), res.total_slots);

  // Walk the verdict log: per parent, attempts count up from 0, never
  // exceed max_harq, the combined BER is monotone non-increasing, and no
  // attempt follows a pass.
  std::vector<uint32_t> attempts(n_initial, 0);
  std::vector<double> best(n_initial, 2.0);
  std::vector<bool> passed(n_initial, false);
  uint64_t retx = 0;
  for (uint64_t i = 0; i < res.harq.size(); ++i) {
    const auto& e = res.harq[i];
    ASSERT_LT(e.parent, n_initial) << "entry " << i;
    if (i < n_initial) {
      EXPECT_EQ(e.parent, i);  // initial transmissions in stream order
      EXPECT_EQ(e.attempt, 0u);
    } else {
      ++retx;
      EXPECT_EQ(e.attempt, attempts[e.parent] + 1) << "entry " << i;
      EXPECT_LE(e.attempt, opt.max_harq) << "entry " << i;
      EXPECT_FALSE(passed[e.parent]) << "retx after pass, entry " << i;
    }
    attempts[e.parent] = e.attempt;
    EXPECT_LE(e.combined_ber, best[e.parent]) << "entry " << i;
    best[e.parent] = e.combined_ber;
    if (e.passed) {
      EXPECT_LE(e.combined_ber, opt.harq_ber) << "entry " << i;
      passed[e.parent] = true;
    }
  }
  EXPECT_EQ(retx, res.harq_retx);

  // Verdict counters are exactly the log's roll-up...
  uint64_t recovered = 0, exhausted = 0;
  for (uint64_t p = 0; p < n_initial; ++p) {
    if (attempts[p] == 0) continue;  // passed (or was never executed) first
    if (passed[p]) {
      ++recovered;
    } else {
      EXPECT_EQ(attempts[p], opt.max_harq) << "parent " << p;
      ++exhausted;
    }
  }
  EXPECT_EQ(recovered, res.harq_recovered);
  EXPECT_EQ(exhausted, res.harq_exhausted);

  // ...and the group counters partition the global ones.
  uint64_t g_retx = 0, g_rec = 0, g_exh = 0;
  for (const auto& g : res.groups) {
    g_retx += g.harq_retx;
    g_rec += g.harq_recovered;
    g_exh += g.harq_exhausted;
  }
  EXPECT_EQ(g_retx, res.harq_retx);
  EXPECT_EQ(g_rec, res.harq_recovered);
  EXPECT_EQ(g_exh, res.harq_exhausted);
}

TEST(Harq, VirtualOnlyRejectsTheHarqLoop) {
  Scheduler_options opt;
  opt.virtual_only = true;
  opt.max_harq = 1;
  const Traffic_source src(fading_traffic(4));
  EXPECT_DEATH(Slot_scheduler(opt).run(src), "virtual-only");
}

}  // namespace
