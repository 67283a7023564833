// Slot-sweep throughput: the paper's slot-budget argument, host-side.
//
// Runs the same scenario grid (runtime::Grid_source) through the slot
// scheduler serially (1 worker) and on the full thread pool, reports
// slots/sec for both, the parallel speedup, and verifies the two runs are
// bit-identical (the determinism contract: per-slot seeds derive from
// (base_seed, slot_index) alone and aggregation is in slot-index order).
//
//   ./bench/bench_throughput_sweep [--workers N] [--backend reference]
//       [--fft 64,256,1024] [--snr-points 5] [--slots 2] [--arch minipool]
//       [--json out.json]                   (an unknown flag exits 2)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;

bool bit_identical(const runtime::Schedule_result& a,
                   const runtime::Schedule_result& b) {
  if (!a.deterministic_equal(b) || a.slots.size() != b.slots.size()) {
    return false;
  }
  for (size_t i = 0; i < a.slots.size(); ++i) {
    const auto& x = a.slots[i];
    const auto& y = b.slots[i];
    if (x.bits != y.bits || x.evm != y.evm || x.ber != y.ber ||
        x.sigma2_hat != y.sigma2_hat) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  bench::banner("[host]", "slot-sweep throughput",
                "Scenario grid executed serially and slot-parallel on a host "
                "thread pool;\nN-worker results are bit-identical to the "
                "serial run by construction.");
  auto rep = bench::make_report("bench_throughput_sweep", "[host]",
                                "slot-sweep throughput");

  runtime::Sweep_grid grid;
  grid.fft_sizes = cli.get_u32_list("--fft", "64,256,1024");
  const uint32_t snr_points = cli.get_u32("--snr-points", 5);
  grid.snr_db.clear();
  for (uint32_t i = 0; i < snr_points; ++i) {
    grid.snr_db.push_back(10.0 + 5.0 * i);
  }
  grid.slots_per_point = bench::slots_from_cli(cli, 2);

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli);
  opt.cluster = bench::cluster_from_cli(cli, "minipool");

  const uint32_t workers_flag = cli.get_u32("--workers", 0);
  const std::string json_path = cli.get("--json", "");
  cli.reject_unknown();
  const uint32_t pool =
      workers_flag ? workers_flag
                   : std::max(1u, std::thread::hardware_concurrency());

  const runtime::Grid_source source(grid);
  opt.workers = 1;
  const auto serial = runtime::Slot_scheduler(opt).run(source);
  opt.workers = pool;
  const auto parallel = runtime::Slot_scheduler(opt).run(source);

  std::fputs(parallel.str().c_str(), stdout);
  std::printf("\nserial   : %6.1f slots/s (%.3f s wall)\n",
              serial.slots_per_second(), serial.wall_seconds);
  std::printf("%2u workers: %6.1f slots/s (%.3f s wall) -> speedup %.2fx\n",
              parallel.workers, parallel.slots_per_second(),
              parallel.wall_seconds,
              serial.wall_seconds / parallel.wall_seconds);
  const bool ok = bit_identical(serial, parallel);
  std::printf("bit-identical to serial: %s\n", ok ? "yes" : "NO");

  // Per-point curves are bit-exact (the determinism contract), so they gate
  // the compare tool; the wall-clock throughput figures do not.
  rep.add_meta("backend", opt.backend);
  rep.add_meta("cluster", opt.cluster.name);
  rep.add_meta("workers", std::to_string(pool));
  const auto points = grid.points();
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& point = points[i];
    const auto& p = parallel.groups[i];
    auto& row = rep.add_row(
        "fft=" + std::to_string(point.fft_size) +
        " ue=" + std::to_string(point.n_ue) +
        " qam=" + std::to_string(static_cast<uint32_t>(point.qam)) +
        " snr=" + common::Table::fmt(point.snr_db, 1));
    row.cluster = opt.cluster.name;
    row.metric("evm", p.evm, "rms", true, "exact");
    row.metric("ber", p.ber, "rate", true, "exact");
    row.metric("sigma2_hat", p.sigma2_hat, "power", true, "exact");
    if (p.cycles) {
      row.metric("cycles", static_cast<double>(p.cycles), "cycles");
    }
  }
  auto& totals = rep.add_row("throughput");
  totals.metric("total_slots", static_cast<double>(parallel.total_slots),
                "count", true, "exact");
  totals.metric("bit_identical", ok ? 1.0 : 0.0, "bool", true, "higher");
  totals.metric("serial_slots_per_s", serial.slots_per_second(), "slots/s",
                false, "info");
  totals.metric("parallel_slots_per_s", parallel.slots_per_second(),
                "slots/s", false, "info");
  totals.metric("speedup", serial.wall_seconds / parallel.wall_seconds, "x",
                false, "info");
  return bench::emit(rep, json_path) | (ok ? 0 : 1);
}
