// Slot_scheduler determinism and compatibility tests.
//
// The load-bearing guarantees of the scheduler:
//   - the Grid_source path is bit-identical to a serial slot_config +
//     Pipeline::execute loop at any worker count;
//   - a fixed-seed Traffic_source run produces identical aggregate reports
//     (slot results, latency histograms, deadline-miss counts) at any
//     worker count, with one or two serving threads per worker;
//   - the split backend entry points (run_front_into + run_back_into) on a
//     caller's Slot_front are bit-identical to run_slot_into on every
//     backend.
#include <gtest/gtest.h>

#include "runtime/backend.h"
#include "runtime/backend_parallel.h"
#include "runtime/scheduler.h"
#include "runtime/sweep.h"
#include "runtime/traffic.h"

namespace {

using namespace pp;
using runtime::Grid_source;
using runtime::Schedule_result;
using runtime::Scheduler_options;
using runtime::Slot_scheduler;
using runtime::Sweep_grid;
using runtime::Traffic_cell;
using runtime::Traffic_config;
using runtime::Traffic_source;

void expect_slots_identical(const std::vector<runtime::Slot_result>& a,
                            const std::vector<runtime::Slot_result>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bits, b[i].bits) << "slot " << i;
    EXPECT_EQ(a[i].evm, b[i].evm) << "slot " << i;
    EXPECT_EQ(a[i].ber, b[i].ber) << "slot " << i;
    EXPECT_EQ(a[i].sigma2_hat, b[i].sigma2_hat) << "slot " << i;
    EXPECT_EQ(a[i].total_cycles(), b[i].total_cycles()) << "slot " << i;
  }
}

void expect_aggregates_identical(const Schedule_result& a,
                                 const Schedule_result& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].slots, b.groups[g].slots) << "group " << g;
    EXPECT_EQ(a.groups[g].evm, b.groups[g].evm) << "group " << g;
    EXPECT_EQ(a.groups[g].ber, b.groups[g].ber) << "group " << g;
    EXPECT_EQ(a.groups[g].sigma2_hat, b.groups[g].sigma2_hat)
        << "group " << g;
    EXPECT_EQ(a.groups[g].cycles, b.groups[g].cycles) << "group " << g;
    EXPECT_EQ(a.groups[g].deadline_misses, b.groups[g].deadline_misses)
        << "group " << g;
    EXPECT_TRUE(a.groups[g].latency == b.groups[g].latency) << "group " << g;
  }
  EXPECT_EQ(a.deadline_slots, b.deadline_slots);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_EQ(a.virtual_makespan_s, b.virtual_makespan_s);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_slots, b.total_slots);
  // The field-wise checks above give readable failures; the single-source
  // helper (which bench_serve_latency's re-check also uses) must agree.
  EXPECT_TRUE(a.deterministic_equal(b));
}

Sweep_grid small_grid() {
  Sweep_grid g;
  g.fft_sizes = {16, 64};
  g.snr_db = {15, 25, 30};
  g.slots_per_point = 2;
  return g;
}

Traffic_config small_traffic(uint64_t n_slots = 16) {
  Traffic_config cfg;
  cfg.n_slots = n_slots;
  cfg.base_seed = 11;
  Traffic_cell a;
  a.mu = 1;
  a.fft_size = 64;
  a.load = 0.7;
  Traffic_cell b;
  b.mu = 2;
  b.fft_size = 16;
  b.qam = phy::Qam::qpsk;
  b.load = 1.2;
  // Tight override (well under the cell's analytic service time) so the
  // miss counters are exercised, not just zero.
  b.budget_s = 5e-8;
  cfg.cells = {a, b};
  return cfg;
}

TEST(Scheduler, GridSourceBitIdenticalToPreRefactorSweepLoop) {
  // The batch sweep semantics, reconstructed by hand: walk the grid in
  // slot-index order, one scenario per slot from slot_config, executed on a
  // single backend.  The scheduler must reproduce it bit for bit at 1, 2
  // and 8 workers.
  const Sweep_grid grid = small_grid();
  const auto points = grid.points();
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool(), {});
  auto backend = runtime::make_backend("reference");
  std::vector<runtime::Slot_result> legacy(grid.n_slots());
  for (uint64_t i = 0; i < grid.n_slots(); ++i) {
    const phy::Uplink_scenario sc(Grid_source::slot_config(
        grid, points[i / grid.slots_per_point], i));
    legacy[i] = pipeline.execute(sc, *backend);
  }

  for (const uint32_t workers : {1u, 2u, 8u}) {
    Scheduler_options opt;
    opt.workers = workers;
    const auto res = Slot_scheduler(opt).run(Grid_source(grid));
    expect_slots_identical(res.slots, legacy);
  }
}

TEST(Scheduler, GridJobsAreBatchSemantics) {
  const Grid_source src(small_grid());
  ASSERT_EQ(src.n_slots(), 12u);
  EXPECT_EQ(src.n_groups(), 6u);
  for (uint64_t i = 0; i < src.n_slots(); ++i) {
    const auto job = src.job(i);
    EXPECT_EQ(job.arrival_s, 0.0);
    EXPECT_EQ(job.budget_s, 0.0);  // batch jobs carry no deadline
    EXPECT_EQ(job.group, i / 2);
  }
}

TEST(Scheduler, TrafficAggregatesInvariantAcrossWorkersAndPipelining) {
  const Traffic_source src(small_traffic());
  Scheduler_options opt;
  opt.workers = 1;
  opt.pipelined = false;
  const auto serial = Slot_scheduler(opt).run(src);
  EXPECT_FALSE(serial.pipelined);
  EXPECT_GT(serial.deadline_misses, 0u);  // the tight budget must bite
  EXPECT_LT(serial.deadline_misses, serial.deadline_slots);

  struct Case {
    uint32_t workers;
    bool pipelined;
  };
  for (const Case c : {Case{2, false}, Case{1, true}, Case{3, true}}) {
    opt.workers = c.workers;
    opt.pipelined = c.pipelined;
    const auto res = Slot_scheduler(opt).run(src);
    EXPECT_EQ(res.pipelined, c.pipelined);  // reference backend can split
    expect_slots_identical(res.slots, serial.slots);
    expect_aggregates_identical(res, serial);
  }
}

TEST(Scheduler, SimBackendDeadlineAccountingWorkerInvariant) {
  const Traffic_source src(small_traffic(4));
  Scheduler_options opt;
  opt.backend = "sim";
  opt.clock_ghz = 0.02;  // scaled virtual clock: cycles vs. the mu budgets
  opt.workers = 1;
  const auto serial = Slot_scheduler(opt).run(src);
  opt.workers = 2;
  opt.pipelined = true;  // two whole-slot threads per worker on every backend
  const auto parallel = Slot_scheduler(opt).run(src);
  EXPECT_TRUE(parallel.pipelined);
  EXPECT_GT(serial.total_cycles, 0u);
  expect_slots_identical(parallel.slots, serial.slots);
  expect_aggregates_identical(parallel, serial);
}

TEST(Scheduler, SplitBackendsMatchRunSlot) {
  // run_back_into(run_front_into()) == run_slot_into on every backend -
  // the split contract the per-half timing probes rest on.
  const auto cluster = arch::Cluster_config::minipool();
  const auto pipeline = runtime::uplink_pipeline(cluster, {});
  const phy::Uplink_scenario sc(
      Grid_source::slot_config(small_grid(), small_grid().points()[1], 3));
  for (const char* name : {"reference", "parallel", "fixed", "sim"}) {
    auto whole = runtime::make_backend(name, 2);
    auto split = runtime::make_backend(name, 2);
    runtime::Slot_result a, b;
    runtime::Slot_front front;
    whole->run_slot_into(pipeline, sc, a);
    split->run_front_into(pipeline, sc, front);
    split->run_back_into(pipeline, sc, front, b);
    EXPECT_EQ(a.bits, b.bits) << name;
    EXPECT_EQ(a.evm, b.evm) << name;
    EXPECT_EQ(a.ber, b.ber) << name;
    EXPECT_EQ(a.sigma2_hat, b.sigma2_hat) << name;
    EXPECT_EQ(a.total_cycles(), b.total_cycles()) << name;
  }
}

TEST(Scheduler, AnalyticServiceModelIsPureAndClockScaled) {
  const auto cfg =
      Grid_source::slot_config(small_grid(), small_grid().points()[0], 0);
  const auto cluster = arch::Cluster_config::minipool();
  const double s1 = runtime::analytic_service_seconds(cfg, cluster, 1.0);
  EXPECT_GT(s1, 0.0);
  EXPECT_EQ(s1, runtime::analytic_service_seconds(cfg, cluster, 1.0));
  // Half the clock, twice the service time - exactly (both are powers of 2).
  EXPECT_EQ(runtime::analytic_service_seconds(cfg, cluster, 0.5), 2.0 * s1);
}

TEST(Scheduler, KeepSlotsOffDropsPerSlotResultsOnly) {
  const Traffic_source src(small_traffic(8));
  Scheduler_options opt;
  opt.workers = 2;
  opt.keep_slots = false;
  const auto res = Slot_scheduler(opt).run(src);
  EXPECT_TRUE(res.slots.empty());
  EXPECT_EQ(res.total_slots, 8u);
  EXPECT_EQ(res.latency.count(), 8u);
  uint32_t slots = 0;
  for (const auto& g : res.groups) slots += g.slots;
  EXPECT_EQ(slots, 8u);
}

TEST(Scheduler, EmptySourceYieldsEmptyResult) {
  Traffic_config cfg = small_traffic();
  cfg.n_slots = 0;
  const auto res = Slot_scheduler(Scheduler_options{}).run(Traffic_source(cfg));
  EXPECT_EQ(res.total_slots, 0u);
  EXPECT_EQ(res.latency.count(), 0u);
  EXPECT_EQ(res.deadline_misses, 0u);
  ASSERT_EQ(res.groups.size(), 2u);  // cells still listed, zero slots each
  EXPECT_EQ(res.groups[0].slots, 0u);
  EXPECT_EQ(res.slots_per_second(), 0.0);
}

TEST(Scheduler, RendersTableWithLatencyFooter) {
  const auto res = Slot_scheduler(Scheduler_options{}).run(Traffic_source(small_traffic(6)));
  const std::string table = res.str();
  EXPECT_NE(table.find("miss/dl"), std::string::npos);
  EXPECT_NE(table.find("virtual clock"), std::string::npos);
  EXPECT_NE(table.find("deadline misses"), std::string::npos);
}

// ---- sharded serving engine + admission control ------------------------

// A 4-cell mix with distinct loads so load-aware placement has something to
// balance and the tight-budget cells exercise the overload policies.
Traffic_config serving_traffic(uint64_t n_slots = 24) {
  Traffic_config cfg;
  cfg.n_slots = n_slots;
  cfg.base_seed = 23;
  Traffic_cell heavy;
  heavy.mu = 1;
  heavy.fft_size = 64;
  heavy.n_ue = 4;
  heavy.load = 1.4;
  heavy.budget_s = 2e-7;  // tight: forces drops / degrades under pressure
  Traffic_cell mid;
  mid.mu = 1;
  mid.fft_size = 64;
  mid.load = 0.9;
  Traffic_cell light;
  light.mu = 2;
  light.fft_size = 16;
  light.qam = phy::Qam::qpsk;
  light.load = 0.6;
  Traffic_cell tiny;
  tiny.mu = 2;
  tiny.fft_size = 16;
  tiny.qam = phy::Qam::qpsk;
  tiny.n_ue = 1;
  tiny.load = 0.3;
  tiny.budget_s = 5e-8;
  cfg.cells = {heavy, mid, light, tiny};
  return cfg;
}

TEST(Scheduler, SingleShardOffPolicyIsThePreShardingEngine) {
  // shards = 1 + overload off must be bit-for-bit today's engine: every job
  // admitted, one FCFS queue, group aggregates over all slots, and the
  // global histogram equal to the single shard's.
  const Traffic_source src(small_traffic());
  Scheduler_options opt;
  opt.workers = 1;
  const auto res = Slot_scheduler(opt).run(src);
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_EQ(res.admitted, res.total_slots);
  EXPECT_EQ(res.dropped, 0u);
  EXPECT_EQ(res.degraded, 0u);
  EXPECT_TRUE(res.shards[0].latency == res.latency);
  EXPECT_EQ(res.shards[0].groups, 2u);
  for (const auto& g : res.groups) {
    EXPECT_EQ(g.shard, 0u);
    EXPECT_EQ(g.admitted, g.slots);
  }
  // Placement policy is irrelevant at one shard - bit-identical results.
  opt.placement = "load-aware";
  expect_aggregates_identical(Slot_scheduler(opt).run(src), res);
}

TEST(Scheduler, ShardingPreservesSlotResultsAndSplitsTheQueue) {
  // With overload off, sharding never changes what executes - only the
  // virtual queueing.  Per-slot results and group EVM/BER/cycles must stay
  // bit-identical to the unsharded run; latency/deadline surfaces may
  // legitimately differ (shorter queues), and the shard roll-ups must
  // partition the totals.
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 1;
  const auto unsharded = Slot_scheduler(opt).run(src);
  opt.shards = 2;
  const auto sharded = Slot_scheduler(opt).run(src);
  expect_slots_identical(sharded.slots, unsharded.slots);
  ASSERT_EQ(sharded.groups.size(), unsharded.groups.size());
  for (size_t g = 0; g < sharded.groups.size(); ++g) {
    EXPECT_EQ(sharded.groups[g].evm, unsharded.groups[g].evm);
    EXPECT_EQ(sharded.groups[g].ber, unsharded.groups[g].ber);
    EXPECT_EQ(sharded.groups[g].cycles, unsharded.groups[g].cycles);
    EXPECT_EQ(sharded.groups[g].shard, g % 2);  // round-robin
  }
  ASSERT_EQ(sharded.shards.size(), 2u);
  uint64_t slots = 0, groups = 0;
  runtime::Latency_histogram merged;
  for (const auto& s : sharded.shards) {
    slots += s.slots;
    groups += s.groups;
    merged.merge(s.latency);
  }
  EXPECT_EQ(slots, sharded.total_slots);
  EXPECT_EQ(groups, sharded.groups.size());
  EXPECT_TRUE(merged == sharded.latency);
  // Splitting one queue into two can only shorten waits.
  EXPECT_LE(sharded.deadline_misses, unsharded.deadline_misses);
}

TEST(Scheduler, ShardedServingInvariantAcrossWorkersPipeliningAndIntra) {
  // The whole sharded + admission surface must be bit-identical for any
  // host execution shape (DETERMINISM.md §8).
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 1;
  opt.shards = 2;
  opt.placement = "load-aware";
  opt.overload = "degrade";
  const auto serial = Slot_scheduler(opt).run(src);
  EXPECT_GT(serial.degraded, 0u);  // the tight heavy cell must degrade

  struct Case {
    uint32_t workers;
    uint32_t intra;
    bool pipelined;
    const char* backend;
  };
  for (const Case c : {Case{2, 1, false, "reference"},
                       Case{8, 1, false, "reference"},
                       Case{3, 1, true, "reference"},
                       Case{2, 2, true, "parallel"}}) {
    opt.workers = c.workers;
    opt.intra = c.intra;
    opt.pipelined = c.pipelined;
    opt.backend = c.backend;
    const auto res = Slot_scheduler(opt).run(src);
    // "parallel" is bit-identical to "reference", so the full aggregate
    // surface (EVM/BER included) matches across these shapes.
    expect_aggregates_identical(res, serial);
    EXPECT_EQ(res.admitted, serial.admitted);
    EXPECT_EQ(res.dropped, serial.dropped);
    EXPECT_EQ(res.degraded, serial.degraded);
  }

  // The fixed backend carries sim's Q15 numerics, so EVM/BER legitimately
  // differ from reference - but the serving surface (placement, admission
  // verdicts, per-shard queues, deadline misses) runs on the shared
  // analytic predictor and must be bit-identical across host backends.
  opt.workers = 2;
  opt.intra = 1;
  opt.pipelined = false;
  opt.backend = "fixed";
  const auto fixed = Slot_scheduler(opt).run(src);
  EXPECT_TRUE(fixed.latency == serial.latency);
  EXPECT_EQ(fixed.admitted, serial.admitted);
  EXPECT_EQ(fixed.dropped, serial.dropped);
  EXPECT_EQ(fixed.degraded, serial.degraded);
  EXPECT_EQ(fixed.deadline_misses, serial.deadline_misses);
  EXPECT_EQ(fixed.deadline_slots, serial.deadline_slots);
  EXPECT_EQ(fixed.virtual_makespan_s, serial.virtual_makespan_s);
  ASSERT_EQ(fixed.shards.size(), serial.shards.size());
  for (size_t s = 0; s < fixed.shards.size(); ++s) {
    EXPECT_TRUE(fixed.shards[s].latency == serial.shards[s].latency);
    EXPECT_EQ(fixed.shards[s].admitted, serial.shards[s].admitted);
    EXPECT_EQ(fixed.shards[s].dropped, serial.shards[s].dropped);
    EXPECT_EQ(fixed.shards[s].degraded, serial.shards[s].degraded);
  }
}

TEST(Scheduler, DropPolicyShedsWithoutExecuting) {
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 2;
  opt.overload = "drop";
  const auto res = Slot_scheduler(opt).run(src);
  EXPECT_GT(res.dropped, 0u);
  EXPECT_EQ(res.admitted + res.dropped, res.total_slots);
  // A dropped slot never reaches a backend: its kept Slot_result stays
  // default-constructed (no demodulated bits, no cycles).
  uint64_t defaulted = 0;
  for (const auto& s : res.slots) {
    if (s.bits.empty() && s.total_cycles() == 0) ++defaulted;
  }
  EXPECT_GE(defaulted, res.dropped);
  // Only executed slots are scored: histogram count == admitted.
  EXPECT_EQ(res.latency.count(), res.admitted);
  // Shedding over-budget jobs can only help the survivors' deadlines.
  opt.overload = "off";
  const auto base = Slot_scheduler(opt).run(src);
  EXPECT_LE(res.deadline_misses, base.deadline_misses);
}

TEST(Scheduler, ServedRateAndSynthesisTimesCountExecutedSlotsOnly) {
  // Dropped jobs never run: slots_per_second() counts executed slots over
  // the parallel phase, and wall_synth / wall_service hold one entry per
  // executed slot, with one or two serving threads per worker.
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 2;
  opt.overload = "drop";
  for (const bool pipelined : {false, true}) {
    opt.pipelined = pipelined;
    const auto res = Slot_scheduler(opt).run(src);
    ASSERT_GT(res.dropped, 0u);
    const uint64_t executed = res.total_slots - res.dropped;
    EXPECT_DOUBLE_EQ(res.slots_per_second() * res.wall_seconds,
                     static_cast<double>(executed));
    EXPECT_EQ(res.wall_synth.count(), executed);
    EXPECT_EQ(res.wall_service.count(), executed);
    EXPECT_GT(res.wall_synth.max_recorded(), 0.0);
  }
}

TEST(Scheduler, WorkConservingPipelineMatchesWholeSlotServing) {
  // Cheap flat 64-point slots mixed with 256-point TDL-A slots whose
  // synthesis dominates, served by two whole-slot threads per worker.
  // Which thread ends up serving a slot varies from run to run; the results
  // must not.  Drop admission and one HARQ round put both an
  // admission-thinned stream and a short retransmission round through the
  // threads.
  Traffic_config cfg;
  cfg.n_slots = 24;
  cfg.base_seed = 5;
  Traffic_cell flat;
  flat.mu = 1;
  flat.fft_size = 64;
  flat.n_ue = 1;
  flat.qam = phy::Qam::qpsk;
  flat.load = 1.2;
  Traffic_cell tdl;
  tdl.mu = 1;
  tdl.fft_size = 256;
  tdl.n_ue = 2;
  tdl.snr_db = 14.0;  // some blocks fail and retransmit
  tdl.load = 0.6;
  tdl.profile = phy::Channel_profile::tdl_a;
  tdl.doppler_hz = 10.0;
  cfg.cells = {flat, tdl};
  const Traffic_source src(cfg);

  Scheduler_options opt;
  opt.backend = "fixed";
  opt.overload = "drop";
  opt.clock_ghz = 0.004;  // slow virtual clock: admission drops some jobs
  opt.max_harq = 1;
  opt.harq_ber = 0.001;
  opt.workers = 1;
  const auto whole = Slot_scheduler(opt).run(src);
  ASSERT_FALSE(whole.pipelined);
  ASSERT_GT(whole.dropped, 0u);
  ASSERT_GT(whole.harq_retx, 0u);

  opt.pipelined = true;
  for (const uint32_t workers : {1u, 2u}) {
    opt.workers = workers;
    for (int run = 0; run < 4; ++run) {
      const auto res = Slot_scheduler(opt).run(src);
      ASSERT_TRUE(res.pipelined);
      expect_slots_identical(res.slots, whole.slots);
      EXPECT_TRUE(res.deterministic_equal(whole))
          << workers << " workers, run " << run;
    }
  }
}

TEST(Scheduler, QueuePolicyBoundsThePredictedBacklog) {
  // At 1 GHz the analytic service (~us) is dwarfed by the slot-duration
  // arrival gaps (~100s of us), so a backlog never builds; a slowed
  // virtual clock pushes the shard past saturation.
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 1;
  opt.clock_ghz = 1e-4;
  opt.overload = "queue";
  opt.queue_limit = 2;
  const auto res = Slot_scheduler(opt).run(src);
  EXPECT_GT(res.dropped, 0u);
  // A tighter bound sheds at least as much.
  opt.queue_limit = 1;
  EXPECT_GE(Slot_scheduler(opt).run(src).dropped, res.dropped);
  // An effectively unbounded queue admits everything.
  opt.queue_limit = 100000;
  EXPECT_EQ(Slot_scheduler(opt).run(src).dropped, 0u);
}

TEST(Scheduler, DegradedSlotsExecuteTheReplannedConfigBitExactly) {
  // A degraded slot must execute exactly as if the source had emitted the
  // re-planned config: find a degraded slot, run its re-planned config
  // directly, and compare bit-for-bit.
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 1;
  opt.overload = "degrade";
  const auto res = Slot_scheduler(opt).run(src);
  ASSERT_GT(res.degraded, 0u);
  EXPECT_EQ(res.dropped, 0u);  // degrade always admits
  EXPECT_EQ(res.admitted, res.total_slots);

  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool(), {});
  const auto backend = runtime::make_backend("reference");
  bool checked = false;
  for (uint64_t i = 0; i < src.n_slots() && !checked; ++i) {
    const auto job = src.job(i);
    phy::Uplink_config degraded = job.cfg;
    while (degraded.n_ue > 1) {
      degraded = phy::degrade_to_layers(degraded, degraded.n_ue - 1);
      const phy::Uplink_scenario sc(degraded);
      const auto direct = pipeline.execute(sc, *backend);
      if (direct.bits == res.slots[i].bits &&
          direct.evm == res.slots[i].evm) {
        checked = true;
        break;
      }
    }
  }
  EXPECT_TRUE(checked) << "no slot matched a re-planned layer count";
}

TEST(Scheduler, VirtualOnlyMatchesTheFullRunsDeadlineSurface) {
  // virtual_only skips every backend call but must reproduce the host
  // backends' deadline/admission surface bit for bit - that equivalence is
  // what makes bench_capacity's probes cheap and trustworthy.
  const Traffic_source src(serving_traffic());
  Scheduler_options opt;
  opt.workers = 2;
  opt.shards = 2;
  opt.placement = "load-aware";
  opt.overload = "drop";
  const auto full = Slot_scheduler(opt).run(src);
  opt.virtual_only = true;
  const auto virt = Slot_scheduler(opt).run(src);
  EXPECT_EQ(virt.total_cycles, 0u);
  EXPECT_EQ(virt.wall_service.count(), 0u);
  EXPECT_EQ(virt.wall_synth.count(), 0u);
  EXPECT_TRUE(virt.latency == full.latency);
  EXPECT_EQ(virt.admitted, full.admitted);
  EXPECT_EQ(virt.dropped, full.dropped);
  EXPECT_EQ(virt.deadline_misses, full.deadline_misses);
  EXPECT_EQ(virt.deadline_slots, full.deadline_slots);
  EXPECT_EQ(virt.virtual_makespan_s, full.virtual_makespan_s);
  ASSERT_EQ(virt.shards.size(), full.shards.size());
  for (size_t s = 0; s < virt.shards.size(); ++s) {
    EXPECT_TRUE(virt.shards[s].latency == full.shards[s].latency);
    EXPECT_EQ(virt.shards[s].dropped, full.shards[s].dropped);
  }
}

TEST(Scheduler, ShardedStrAddsShardTableAndServingSummary) {
  Scheduler_options opt;
  opt.workers = 1;
  opt.shards = 2;
  opt.overload = "drop";
  const auto res =
      Slot_scheduler(opt).run(Traffic_source(serving_traffic(12)));
  const std::string table = res.str();
  EXPECT_NE(table.find("adm/dr/dg"), std::string::npos);
  EXPECT_NE(table.find("serving: 2 shards"), std::string::npos);
  EXPECT_NE(table.find("overload drop"), std::string::npos);
}

// Two jobs in one group, except that job 1 names group 1 - a group the
// source does not have.
class Out_of_range_group_source final : public runtime::Slot_source {
 public:
  std::string_view name() const override { return "out-of-range-group"; }
  uint64_t n_slots() const override { return 2; }
  uint32_t n_groups() const override { return 1; }
  std::string group_label(uint32_t) const override { return "g0"; }
  runtime::Slot_job job(uint64_t index) const override {
    runtime::Slot_job j;
    j.index = index;
    j.group = static_cast<uint32_t>(index);
    return j;
  }
};

TEST(SchedulerDeathTest, RejectsAJobOutsideTheSourcesGroups) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Scheduler_options opt;
  opt.workers = 1;
  EXPECT_DEATH(Slot_scheduler(opt).run(Out_of_range_group_source()),
               "group out of range");
}

}  // namespace
