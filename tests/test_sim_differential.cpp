// Cycle-exact differential suite for the simulator fast path.
//
// The fast scheduler (event batching, inline sync grants, bank-ownership
// runs, the far-event queue - machine.h) must not change a single reported
// number relative to the reference event loop that processes every event
// through the ring.  These tests run every kernel of the use-case roll-up
// and the full functional uplink chain both ways and assert cycles, IPC,
// per-kernel stall fractions and recovered payload bits are bit-identical,
// across the mempool/minipool/terapool presets and 1/2/8 sim shards
// (docs/DETERMINISM.md §5).
//
// The reference loop is reached two ways on purpose: Measure_options::
// reference_loop for the roll-up engine, and the SIM_REFERENCE_LOOP
// environment variable (read at Machine construction) for the functional
// backend - the latter is how a differential CI run flips a whole binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <type_traits>

#include "phy/uplink.h"
#include "runtime/backend.h"
#include "runtime/presets.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;
using runtime::Measure_options;
using runtime::Rollup_result;
using runtime::Slot_result;

// ---- roll-up differential: every kernel, fast vs reference ---------------

void expect_rollup_equal(const Rollup_result& a, const Rollup_result& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    const auto& x = a.stages[i];
    const auto& y = b.stages[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.rep.cycles, y.rep.cycles);
    EXPECT_EQ(x.rep.instrs, y.rep.instrs);
    EXPECT_EQ(x.rep.n_cores, y.rep.n_cores);
    EXPECT_EQ(x.times, y.times);
    for (size_t k = 0; k < sim::n_stall_kinds; ++k) {
      EXPECT_EQ(x.rep.stall[k], y.rep.stall[k])
          << stall_name(static_cast<sim::Stall>(k));
    }
    // IPC and the stall fractions are pure functions of the integers above,
    // asserted separately because they are the paper-facing metrics.
    EXPECT_EQ(x.rep.ipc(), y.rep.ipc());
    for (size_t k = 0; k < sim::n_stall_kinds; ++k) {
      EXPECT_EQ(x.rep.frac(static_cast<sim::Stall>(k)),
                y.rep.frac(static_cast<sim::Stall>(k)));
    }
  }
  EXPECT_EQ(a.parallel_cycles, b.parallel_cycles);
  EXPECT_EQ(a.serial_cycles, b.serial_cycles);
}

// Use-case pipeline with estimation rows: FFT, MMM, Cholesky, triangular
// solves, CHE, NE and the Gramian - every registry kernel the chain uses -
// plus the single-core serial baselines.
Rollup_result measure_use_case(const arch::Cluster_config& cluster,
                               const pusch::Pusch_dims& dims, bool reference,
                               uint32_t shards) {
  runtime::Use_case_options uopt;
  uopt.cluster = cluster;
  uopt.dims = dims;
  uopt.include_estimation = true;
  Measure_options mopt;
  mopt.reference_loop = reference;
  mopt.reuse_reports = false;  // measure for real, both times
  mopt.shards = shards;
  return runtime::use_case_pipeline(uopt).measure(mopt);
}

// Reduced dims that fit the small clusters' SRAM (the paper-scale default
// needs TeraPool's 16 MiB L1).
pusch::Pusch_dims small_dims(uint32_t fft) {
  pusch::Pusch_dims d;
  d.fft_size = fft;
  d.n_sc = fft;
  d.n_symb = 4;
  d.n_pilot_symb = 2;
  d.n_rx = 4;
  d.n_beams = 4;
  d.n_ue = 2;
  return d;
}

TEST(SimDifferential, MinipoolRollupMatchesReferenceLoop) {
  const auto cluster = arch::Cluster_config::minipool();
  expect_rollup_equal(measure_use_case(cluster, small_dims(64), false, 1),
                      measure_use_case(cluster, small_dims(64), true, 1));
}

TEST(SimDifferential, MempoolRollupMatchesReferenceLoop) {
  const auto cluster = arch::Cluster_config::mempool();
  expect_rollup_equal(measure_use_case(cluster, small_dims(256), false, 1),
                      measure_use_case(cluster, small_dims(256), true, 1));
}

TEST(SimDifferential, TerapoolRollupMatchesReferenceLoop) {
  // Full paper-scale dims: 64x 4096-pt FFT, 4096x64x32 MMM, 4096 4x4
  // Cholesky - the config the quick baseline gates.
  const auto cluster = arch::Cluster_config::terapool();
  expect_rollup_equal(measure_use_case(cluster, {}, false, 1),
                      measure_use_case(cluster, {}, true, 1));
}

TEST(SimDifferential, RollupInvariantAcrossShardCounts) {
  const auto cluster = arch::Cluster_config::mempool();
  const auto one = measure_use_case(cluster, small_dims(256), false, 1);
  expect_rollup_equal(one, measure_use_case(cluster, small_dims(256), false, 2));
  expect_rollup_equal(one, measure_use_case(cluster, small_dims(256), false, 8));
}

TEST(SimDifferential, RollupInvariantUnderReportMemoization) {
  runtime::Use_case_options uopt;
  uopt.cluster = arch::Cluster_config::minipool();
  uopt.dims = small_dims(64);
  uopt.include_estimation = true;
  const auto pipeline = runtime::use_case_pipeline(uopt);
  Measure_options fresh;
  fresh.reuse_reports = false;
  Measure_options memo;
  memo.reuse_reports = true;
  const auto cold = pipeline.measure(memo);  // populates the process cache
  expect_rollup_equal(cold, pipeline.measure(memo));   // served from cache
  expect_rollup_equal(cold, pipeline.measure(fresh));  // measured again
}

// ---- functional uplink chain: fast vs SIM_REFERENCE_LOOP=1 ---------------

void expect_slot_equal(const Slot_result& a, const Slot_result& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    SCOPED_TRACE(a.stages[i].name);
    EXPECT_EQ(a.stages[i].name, b.stages[i].name);
    EXPECT_EQ(a.stages[i].cycles, b.stages[i].cycles);
    EXPECT_EQ(a.stages[i].instrs, b.stages[i].instrs);
    EXPECT_EQ(a.stages[i].runs, b.stages[i].runs);
    for (size_t k = 0; k < sim::n_stall_kinds; ++k) {
      EXPECT_EQ(a.stages[i].stall[k], b.stages[i].stall[k])
          << stall_name(static_cast<sim::Stall>(k));
    }
  }
  ASSERT_EQ(a.bits.size(), b.bits.size());
  for (size_t l = 0; l < a.bits.size(); ++l) {
    EXPECT_EQ(a.bits[l], b.bits[l]) << "UE " << l;
  }
  EXPECT_EQ(a.evm, b.evm);
  EXPECT_EQ(a.ber, b.ber);
  EXPECT_EQ(a.sigma2_hat, b.sigma2_hat);
}

phy::Uplink_config chain_cfg(uint32_t fft) {
  phy::Uplink_config cfg;
  cfg.n_sc = fft;
  cfg.fft_size = fft;
  // 8 antennas keep QPSK on 2 UEs inside the Q15 envelope: none of 7500
  // seeds had a bit error, against about 1.8% on 4 antennas.
  cfg.n_rx = 8;
  cfg.n_beams = 8;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qpsk;
  cfg.sigma2 = 1e-7;
  cfg.ue_power = 0.08;
  cfg.seed = 23;
  return cfg;
}

// One slot through the sim backend; `reference` flips the environment knob
// the way a differential CI build would (the Machine reads it at
// construction, inside Backend::run_slot_into).
Slot_result run_chain(const arch::Cluster_config& cluster, uint32_t fft,
                      bool reference) {
  if (reference) {
    setenv("SIM_REFERENCE_LOOP", "1", 1);
  } else {
    unsetenv("SIM_REFERENCE_LOOP");
  }
  const auto pipeline = runtime::uplink_pipeline(cluster);
  const phy::Uplink_scenario sc(chain_cfg(fft));
  const auto backend = runtime::make_backend("sim", 1);
  Slot_result out = pipeline.execute(sc, *backend);
  unsetenv("SIM_REFERENCE_LOOP");
  return out;
}

TEST(SimDifferential, UplinkChainMinipoolMatchesReferenceLoop) {
  const auto cluster = arch::Cluster_config::minipool();
  const auto fast = run_chain(cluster, 64, false);
  const auto ref = run_chain(cluster, 64, true);
  expect_slot_equal(fast, ref);
  EXPECT_EQ(fast.ber, 0.0);  // the chain actually recovered the payload
}

TEST(SimDifferential, UplinkChainMempoolMatchesReferenceLoop) {
  const auto cluster = arch::Cluster_config::mempool();
  expect_slot_equal(run_chain(cluster, 256, false),
                    run_chain(cluster, 256, true));
}

// ---- sim shards: slot-level host threading is invisible ------------------

runtime::Schedule_result sweep_with_shards(uint32_t sim_shards) {
  runtime::Sweep_grid grid;
  grid.fft_sizes = {64};
  grid.ue_counts = {2};
  grid.qam_orders = {phy::Qam::qam16};
  grid.snr_db = {20.0, 30.0};
  grid.slots_per_point = 2;
  grid.base_seed = 7;
  runtime::Scheduler_options opt;
  opt.backend = "sim";
  opt.cluster = arch::Cluster_config::minipool();
  opt.workers = sim_shards;
  opt.keep_slots = true;
  return runtime::Slot_scheduler(opt).run(runtime::Grid_source(grid));
}

TEST(SimDifferential, SweepInvariantAcrossSimShards) {
  const auto one = sweep_with_shards(1);
  ASSERT_EQ(one.slots.size(), 4u);
  for (const uint32_t shards : {2u, 8u}) {
    SCOPED_TRACE(shards);
    const auto sharded = sweep_with_shards(shards);
    ASSERT_EQ(sharded.slots.size(), one.slots.size());
    for (size_t i = 0; i < one.slots.size(); ++i) {
      SCOPED_TRACE(i);
      expect_slot_equal(one.slots[i], sharded.slots[i]);
    }
    ASSERT_EQ(sharded.groups.size(), one.groups.size());
    for (size_t p = 0; p < one.groups.size(); ++p) {
      EXPECT_EQ(one.groups[p].cycles, sharded.groups[p].cycles);
      EXPECT_EQ(one.groups[p].evm, sharded.groups[p].evm);
      EXPECT_EQ(one.groups[p].ber, sharded.groups[p].ber);
    }
    EXPECT_EQ(one.total_cycles, sharded.total_cycles);
  }
}

// ---- counter width: TeraPool-length traces must not wrap -----------------

TEST(SimDifferential, StallAccumulatorsSurviveTeraPoolTraceLengths) {
  // A sustained TeraPool serve trace parks 1024 cores in WFI for most of
  // every slot: one slot alone contributes ~1e8-1e9 WFI cycles to its
  // stage accumulator, so a u32 wraps within seconds of simulated traffic.
  // Pin the width and prove the arithmetic a u32 would get wrong.
  static_assert(
      std::is_same_v<decltype(Slot_result::Stage{}.stall)::value_type,
                     uint64_t>,
      "per-stage stall accumulators must be 64-bit");
  static_assert(
      std::is_same_v<decltype(sim::Kernel_report{}.stall)::value_type,
                     uint64_t>,
      "kernel-report stall counters must be 64-bit");

  Slot_result::Stage st;
  sim::Kernel_report rep;
  const uint64_t per_launch = uint64_t{3} << 30;  // ~3.2e9 WFI core-cycles
  rep.stall[static_cast<size_t>(sim::Stall::wfi)] = per_launch;
  // Accumulate exactly as Sim_backend does per kernel launch.
  for (int launch = 0; launch < 4; ++launch) {
    st.cycles += rep.cycles;
    st.instrs += rep.instrs;
    for (size_t k = 0; k < sim::n_stall_kinds; ++k) {
      st.stall[k] += rep.stall[k];
    }
    ++st.runs;
  }
  const uint64_t wfi = st.stall[static_cast<size_t>(sim::Stall::wfi)];
  EXPECT_EQ(wfi, 4 * per_launch);
  EXPECT_GT(wfi, uint64_t{UINT32_MAX})
      << "a 32-bit accumulator would have wrapped here";
  EXPECT_NE(wfi, (4 * per_launch) & 0xffffffffull)
      << "value is indistinguishable from the wrapped u32 sum";
}

}  // namespace
