// Grid sweep determinism and aggregation tests (Grid_source driven by
// Slot_scheduler; one group per grid point).
//
// The load-bearing guarantee: a slot's result is a pure function of
// (grid, slot_index) — seeds derive from (base_seed, slot_index) alone,
// workers share no mutable state, and aggregation walks slots in index
// order — so any worker count yields bit-identical results.
#include <gtest/gtest.h>

#include <thread>

#include "runtime/backend.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;
using runtime::Grid_source;
using runtime::Schedule_result;
using runtime::Scheduler_options;
using runtime::Slot_scheduler;
using runtime::Sweep_grid;

Sweep_grid small_grid() {
  Sweep_grid g;
  g.fft_sizes = {16, 64, 256};          // >= 3 numerologies
  g.snr_db = {10, 15, 20, 25, 30};      // >= 5 SNR points
  g.ue_counts = {2};
  g.qam_orders = {phy::Qam::qam16};
  g.slots_per_point = 1;
  return g;
}

void expect_bit_identical(const Schedule_result& a, const Schedule_result& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (size_t i = 0; i < a.slots.size(); ++i) {
    const auto& x = a.slots[i];
    const auto& y = b.slots[i];
    EXPECT_EQ(x.bits, y.bits) << "slot " << i;
    EXPECT_EQ(x.evm, y.evm) << "slot " << i;
    EXPECT_EQ(x.ber, y.ber) << "slot " << i;
    EXPECT_EQ(x.sigma2_hat, y.sigma2_hat) << "slot " << i;
    ASSERT_EQ(x.stages.size(), y.stages.size());
    for (size_t s = 0; s < x.stages.size(); ++s) {
      EXPECT_EQ(x.stages[s].cycles, y.stages[s].cycles) << "slot " << i;
      EXPECT_EQ(x.stages[s].runs, y.stages[s].runs) << "slot " << i;
    }
  }
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t p = 0; p < a.groups.size(); ++p) {
    EXPECT_EQ(a.groups[p].evm, b.groups[p].evm) << "point " << p;
    EXPECT_EQ(a.groups[p].ber, b.groups[p].ber) << "point " << p;
    EXPECT_EQ(a.groups[p].sigma2_hat, b.groups[p].sigma2_hat) << "point " << p;
    EXPECT_EQ(a.groups[p].cycles, b.groups[p].cycles) << "point " << p;
  }
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

Schedule_result run_with_workers(const Sweep_grid& g, uint32_t workers,
                                 const std::string& backend = "reference") {
  Scheduler_options opt;
  opt.workers = workers;
  opt.backend = backend;
  return Slot_scheduler(opt).run(Grid_source(g));
}

TEST(Sweep, EightWorkersBitIdenticalToSerialOnReference) {
  const Sweep_grid g = small_grid();
  const auto serial = run_with_workers(g, 1);
  const auto parallel = run_with_workers(g, 8);
  ASSERT_EQ(serial.total_slots, 15u);
  EXPECT_EQ(serial.workers, 1u);
  expect_bit_identical(serial, parallel);
}

TEST(Sweep, OddWorkerCountsBitIdenticalToo) {
  Sweep_grid g = small_grid();
  g.fft_sizes = {16, 64};
  g.slots_per_point = 2;  // exercise the point -> slot fan-out
  const auto serial = run_with_workers(g, 1);
  for (const uint32_t w : {2u, 3u, 5u}) {
    expect_bit_identical(serial, run_with_workers(g, w));
  }
}

TEST(Sweep, SimBackendBitIdenticalAcrossWorkers) {
  Sweep_grid g;
  g.fft_sizes = {64};
  g.snr_db = {20, 30};
  const auto serial = run_with_workers(g, 1, "sim");
  const auto parallel = run_with_workers(g, 2, "sim");
  expect_bit_identical(serial, parallel);
  // The simulator reports cycles, and they are data-independent, so both
  // points cost the same.
  ASSERT_EQ(serial.groups.size(), 2u);
  EXPECT_GT(serial.groups[0].cycles, 0u);
  EXPECT_EQ(serial.groups[0].cycles, serial.groups[1].cycles);
}

TEST(Sweep, SlotSeedsFollowTheDerivationContract) {
  const Sweep_grid g = small_grid();
  const auto points = g.points();
  for (uint64_t i = 0; i < g.n_slots(); ++i) {
    const auto cfg = Grid_source::slot_config(g, points[i], i);
    EXPECT_EQ(cfg.seed, common::Rng::derive_seed(g.base_seed, i));
  }
}

TEST(Sweep, SlotSeedsStableWhenGridGrows) {
  // Appending a numerology at the end of the outermost axis must not move
  // existing slots: their indices — and therefore seeds and results — stay.
  Sweep_grid g = small_grid();
  const auto before = run_with_workers(g, 2);
  Sweep_grid grown = g;
  grown.fft_sizes.push_back(1024);
  const auto after = run_with_workers(grown, 2);
  ASSERT_EQ(after.slots.size(), before.slots.size() + grown.snr_db.size());
  for (size_t i = 0; i < before.slots.size(); ++i) {
    EXPECT_EQ(before.slots[i].bits, after.slots[i].bits) << "slot " << i;
    EXPECT_EQ(before.slots[i].evm, after.slots[i].evm) << "slot " << i;
  }
}

TEST(Sweep, EmptyGrid) {
  Sweep_grid g = small_grid();
  g.snr_db.clear();  // one empty axis empties the grid
  const auto res = run_with_workers(g, 4);
  EXPECT_EQ(res.total_slots, 0u);
  EXPECT_TRUE(res.groups.empty());
  EXPECT_TRUE(res.slots.empty());
  EXPECT_EQ(res.slots_per_second(), res.slots_per_second());  // finite, no NaN

  Sweep_grid g2 = small_grid();
  g2.slots_per_point = 0;  // points exist but carry no slots
  const auto res2 = run_with_workers(g2, 4);
  EXPECT_EQ(res2.total_slots, 0u);
  ASSERT_EQ(res2.groups.size(), g2.n_points());
  for (const auto& p : res2.groups) {
    EXPECT_EQ(p.slots, 0u);
    EXPECT_EQ(p.evm, 0.0);
  }
}

TEST(Sweep, SinglePointMatchesDirectPipelineExecute) {
  Sweep_grid g;
  g.fft_sizes = {64};
  g.snr_db = {25};
  const auto res = run_with_workers(g, 4);
  ASSERT_EQ(res.total_slots, 1u);

  // The same slot driven by hand through the preset + backend layer.
  Scheduler_options opt;
  const auto pipeline = runtime::uplink_pipeline(opt.cluster, opt.uplink);
  auto backend = runtime::make_backend("reference");
  const phy::Uplink_scenario sc(
      Grid_source::slot_config(g, g.points()[0], 0));
  const auto direct = pipeline.execute(sc, *backend);
  EXPECT_EQ(res.slots[0].bits, direct.bits);
  EXPECT_EQ(res.slots[0].evm, direct.evm);
  EXPECT_EQ(res.slots[0].ber, direct.ber);
  EXPECT_EQ(res.groups[0].evm, direct.evm);
}

TEST(Sweep, KeepSlotsOffDropsPerSlotResults) {
  Sweep_grid g;
  g.fft_sizes = {16};
  g.snr_db = {20, 30};
  Scheduler_options opt;
  opt.workers = 2;
  opt.keep_slots = false;
  const auto res = Slot_scheduler(opt).run(Grid_source(g));
  EXPECT_TRUE(res.slots.empty());
  ASSERT_EQ(res.groups.size(), 2u);
  EXPECT_GT(res.groups[0].evm, 0.0);  // roll-up still aggregated
}

TEST(Sweep, ReportsThroughputAndRendersTable) {
  Sweep_grid g;
  g.fft_sizes = {16};
  g.snr_db = {30};
  const auto res = run_with_workers(g, 1);
  EXPECT_GT(res.wall_seconds, 0.0);
  EXPECT_GT(res.slots_per_second(), 0.0);
  const std::string table = res.str();
  EXPECT_NE(table.find("fft16 ue2 qam16 snr30.0"), std::string::npos);
  EXPECT_NE(table.find("reference backend"), std::string::npos);
}

TEST(Sweep, EightWorkerSpeedup) {
  // The acceptance bar: >= 3x wall-clock over serial with 8 workers on the
  // reference backend.  Needs real parallel hardware; skip on small hosts
  // (CI containers often expose 1-2 cores) where the bar is unmeetable.
  if (std::thread::hardware_concurrency() < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  Sweep_grid g;
  g.fft_sizes = {64, 256, 1024};
  g.snr_db = {10, 15, 20, 25, 30};
  g.slots_per_point = 2;
  Scheduler_options opt;
  opt.keep_slots = false;
  opt.workers = 1;
  const auto serial = Slot_scheduler(opt).run(Grid_source(g));
  opt.workers = 8;
  const auto parallel = Slot_scheduler(opt).run(Grid_source(g));
  EXPECT_GE(serial.wall_seconds / parallel.wall_seconds, 3.0)
      << "serial " << serial.wall_seconds << " s, 8 workers "
      << parallel.wall_seconds << " s";
}

}  // namespace
