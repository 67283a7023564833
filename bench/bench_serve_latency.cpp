// Streaming slot latency vs. the numerology budget: the paper's §II
// slot-budget argument, measured under sustained traffic instead of a batch
// grid.
//
// A fixed-seed two-cell Traffic_source (Poisson arrivals, mixed UE/QAM) is
// served by the streaming scheduler on the simulated cluster; every slot's
// latency runs on the deterministic virtual clock (simulated cycles at
// --clock-ghz, one virtual cluster draining the queue) and is scored
// against its cell's 1 ms / 2^mu slot budget.  The run repeats with a
// different host worker count, and the aggregate reports (per-cell EVM/BER,
// latency histograms, miss counts) are verified identical - the
// scheduler's determinism contract.
//
//   ./bench/bench_serve_latency [--slots 24] [--backend sim]
//       [--arch minipool] [--clock-ghz 0.02] [--load 0.9] [--seed 1]
//       [--servers 1] [--json out.json]     (an unknown flag exits 2)
//
// The default scaled-down clock (0.02 GHz) puts the toy 64-point slot at
// roughly half its mu=1 budget, the same service-to-budget ratio the paper
// reports for the full 4096-point slot on a 1 GHz cluster (§VI: ~0.4 ms of
// 0.5 ms), so queueing - not raw service time - decides the misses.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/backend.h"
#include "runtime/presets.h"
#include "runtime/traffic.h"

namespace {

using namespace pp;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  bench::banner("[§II]", "streaming slot latency vs. the numerology budget",
                "Sustained two-cell Poisson traffic served by the streaming "
                "scheduler; per-slot\nlatency on the deterministic virtual "
                "clock against the 1 ms / 2^mu slot budget.\nAggregates are "
                "re-checked bit-identical across worker counts.");
  auto rep = bench::make_report("bench_serve_latency", "[§II]",
                                "streaming slot latency vs. slot budget");

  runtime::Traffic_config traffic;
  traffic.n_slots = bench::slots_from_cli(cli, 24);
  traffic.base_seed = cli.get_u32("--seed", 1);
  const double load = bench::positive_from_cli(cli, "--load", 0.9);
  runtime::Traffic_cell cell0;  // mu=1: 500 us budget
  cell0.mu = 1;
  cell0.fft_size = 64;
  cell0.n_ue = 2;
  cell0.qam = phy::Qam::qam16;
  cell0.load = load;
  runtime::Traffic_cell cell1;  // mu=0, denser constellation: 1 ms budget
  cell1.mu = 0;
  cell1.fft_size = 64;
  cell1.n_ue = 2;
  cell1.qam = phy::Qam::qam64;
  cell1.load = load;
  traffic.cells = {cell0, cell1};
  const runtime::Traffic_source source(traffic);

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli, "sim");
  opt.cluster = bench::cluster_from_cli(cli, "minipool");
  opt.keep_slots = false;
  opt.service_units = bench::servers_from_cli(cli);
  opt.clock_ghz = bench::positive_from_cli(cli, "--clock-ghz", 0.02);
  const std::string json_path = cli.get("--json", "");
  cli.reject_unknown();

  opt.workers = 1;
  const auto serial = runtime::Slot_scheduler(opt).run(source);
  opt.workers = 4;
  const auto parallel = runtime::Slot_scheduler(opt).run(source);

  std::fputs(serial.str().c_str(), stdout);
  std::printf("\nserial   : %6.1f slots/s (%.3f s wall)\n",
              serial.slots_per_second(), serial.wall_seconds);
  std::printf("%u workers: %6.1f slots/s (%.3f s wall)\n", parallel.workers,
              parallel.slots_per_second(), parallel.wall_seconds);
  const bool ok = serial.deterministic_equal(parallel);
  std::printf("aggregates bit-identical across workers: %s\n",
              ok ? "yes" : "NO");

  // ---- steady-state serving loop: zero allocations after warm-up --------
  // The serving path's slot executions on one persistent host backend over
  // prebuilt scenarios (scenario construction itself stays allocating by
  // design - DETERMINISM.md section 10 - and the sim backend rebuilds its
  // machine per slot, so the sim default is stood in for by its bit-exact
  // host twin "fixed").  The warm-up passes grow the slot workspaces; the
  // measured passes must never touch the heap.  PP_COUNT_ALLOCS builds
  // enforce that with an exit-1 gate.
  const std::string steady_name =
      opt.backend == "sim" ? "fixed" : opt.backend;
  const auto steady_backend = runtime::make_backend(steady_name, 1);
  const runtime::Pipeline pipeline =
      runtime::uplink_pipeline(opt.cluster, opt.uplink);
  const uint64_t n_steady = std::min<uint64_t>(source.n_slots(), 12);
  std::vector<std::unique_ptr<const phy::Uplink_scenario>> scenarios;
  scenarios.reserve(n_steady);
  for (uint64_t i = 0; i < n_steady; ++i) {
    scenarios.push_back(
        std::make_unique<const phy::Uplink_scenario>(source.job(i).cfg));
  }
  constexpr int kSteadyPasses = 3;
  runtime::Slot_result steady_res;
  double steady_s = 0.0;
  const double apslot = bench::allocs_per_slot(
      kSteadyPasses * n_steady,
      [&] {
        for (int i = 0; i < 2; ++i) {
          for (const auto& s : scenarios) {
            pipeline.execute_into(*s, *steady_backend, steady_res);
          }
        }
      },
      [&] {
        const double t0 = now_seconds();
        for (int pass = 0; pass < kSteadyPasses; ++pass) {
          for (const auto& s : scenarios) {
            pipeline.execute_into(*s, *steady_backend, steady_res);
          }
        }
        steady_s =
            (now_seconds() - t0) / static_cast<double>(kSteadyPasses * n_steady);
      });
  const int alloc_gate =
      bench::gate_steady_allocs("bench_serve_latency", apslot);
  std::printf("steady state (%s backend): %.1f us/slot, %g allocs/slot, "
              "%zu KiB workspace\n",
              steady_name.c_str(), steady_s * 1e6, apslot,
              steady_backend->workspace_bytes() / 1024);

  rep.add_meta("backend", opt.backend);
  rep.add_meta("cluster", opt.cluster.name);
  rep.add_meta("servers", std::to_string(opt.service_units));
  for (const auto& g : serial.groups) {
    auto& row = rep.add_row(g.label);
    row.cluster = opt.cluster.name;
    row.metric("slots", static_cast<double>(g.slots), "count", true, "exact");
    row.metric("evm", g.evm, "rms", true, "exact");
    row.metric("ber", g.ber, "rate", true, "exact");
    row.metric("deadline_misses", static_cast<double>(g.deadline_misses),
               "count", true, "exact");
    row.metric("latency_p99", 1e6 * g.latency.percentile(0.99), "us", true,
               "exact");
    if (g.cycles) {
      row.metric("cycles", static_cast<double>(g.cycles), "cycles");
    }
  }
  auto& totals = rep.add_row("totals");
  totals.metric("total_slots", static_cast<double>(serial.total_slots),
                "count", true, "exact");
  totals.metric("deadline_slots", static_cast<double>(serial.deadline_slots),
                "count", true, "exact");
  totals.metric("deadline_misses",
                static_cast<double>(serial.deadline_misses), "count", true,
                "exact");
  totals.metric("latency_p50", 1e6 * serial.latency.percentile(0.50), "us",
                true, "exact");
  totals.metric("latency_p99", 1e6 * serial.latency.percentile(0.99), "us",
                true, "exact");
  totals.metric("latency_p999", 1e6 * serial.latency.percentile(0.999), "us",
                true, "exact");
  // The whole virtual-clock surface is bit-deterministic (DETERMINISM.md
  // §6), so the makespan gates "exact" like its sibling latency metrics.
  totals.metric("virtual_makespan_ms", 1e3 * serial.virtual_makespan_s, "ms",
                true, "exact");
  totals.metric("worker_invariant", ok ? 1.0 : 0.0, "bool", true, "higher");
  totals.metric("serial_slots_per_s", serial.slots_per_second(), "slots/s",
                false, "info");
  totals.metric("parallel_slots_per_s", parallel.slots_per_second(),
                "slots/s", false, "info");
  rep.add_meta("steady_backend", steady_name);
  totals.metric("allocs_per_slot", apslot, "allocs/slot", true, "exact");
  totals.metric("steady_slot_us", steady_s * 1e6, "us", false, "info");
  return bench::emit(rep, json_path) | (ok ? 0 : 1) | alloc_gate;
}
