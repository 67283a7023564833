// Scenario mixes: fading channel profiles + the closed HARQ loop under
// sharded serving with admission control.
//
// A fixed-seed three-cell Traffic_source spans the channel-profile axis -
// one flat block-fading cell, one TDL-A and one TDL-C cell with Doppler
// evolution - across mixed numerology / FFT size / UE count / QAM order.
// The stream is served sharded (2 shards, drop overload) with the HARQ
// loop closed: slots decoding above the BER threshold re-enter the stream
// as chase-combined retransmissions (at most --max-harq per slot), making
// the offered load endogenous.  The default operating point is tuned so
// that retransmissions, recoveries AND exhaustions all occur - the metrics
// gate the whole loop, not just its happy path.
//
// The run repeats at a different worker count and the aggregate surfaces
// (per-cell BER, admission counters, deadline misses, latency histograms,
// HARQ schedule/verdicts) are re-checked bit-identical -
// Schedule_result::deterministic_equal, the scheduler's contract extended
// over the HARQ fields (docs/DETERMINISM.md).
//
//   ./bench/bench_scenario_mix [--slots 48] [--backend reference]
//       [--doppler 6] [--snr 30] [--max-harq 2] [--harq-ber 0.01]
//       [--clock-ghz 0.02] [--shards 2] [--json out.json]
//       (an unknown flag exits 2)
#include <cstdio>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/traffic.h"

using namespace pp;

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  bench::banner("[§II]", "scenario mixes: fading profiles + HARQ loop",
                "Three cells across the channel-profile axis (flat, TDL-A, "
                "TDL-C with Doppler)\nserved sharded with drop admission and "
                "the HARQ retransmission loop closed.\nAggregates are "
                "re-checked bit-identical across worker counts.");
  auto rep = bench::make_report("bench_scenario_mix", "[§II]",
                                "fading scenario mixes + HARQ loop");

  runtime::Traffic_config traffic;
  traffic.n_slots = bench::slots_from_cli(cli, 48);
  traffic.base_seed = cli.get_u32("--seed", 1);
  const double doppler = cli.get_double("--doppler", 6.0);
  const double snr = cli.get_double("--snr", 30.0);
  const double load = bench::positive_from_cli(cli, "--load", 0.9);

  runtime::Traffic_cell cell0;  // flat baseline, mu=0
  cell0.mu = 0;
  cell0.fft_size = 64;
  cell0.n_ue = 2;
  cell0.qam = phy::Qam::qam16;
  cell0.snr_db = snr;
  cell0.load = load;
  runtime::Traffic_cell cell1;  // TDL-A with Doppler, mu=1, 4 layers
  cell1.mu = 1;
  cell1.fft_size = 64;
  cell1.n_ue = 4;
  cell1.qam = phy::Qam::qam16;
  cell1.snr_db = snr;
  cell1.load = load;
  cell1.profile = phy::Channel_profile::tdl_a;
  cell1.doppler_hz = doppler;
  runtime::Traffic_cell cell2;  // TDL-C with Doppler, mu=1, denser QAM
  cell2.mu = 1;
  cell2.fft_size = 256;
  cell2.n_ue = 2;
  cell2.qam = phy::Qam::qam64;
  cell2.snr_db = snr;
  cell2.load = load;
  cell2.profile = phy::Channel_profile::tdl_c;
  cell2.doppler_hz = doppler;
  traffic.cells = {cell0, cell1, cell2};
  const runtime::Traffic_source source(traffic);

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli, "reference");
  opt.cluster = bench::cluster_from_cli(cli, "minipool");
  opt.keep_slots = false;
  opt.shards = bench::shards_from_cli(cli, 2);
  opt.overload = bench::overload_from_cli(cli, "drop");
  opt.service_units = bench::servers_from_cli(cli);
  // Scaled-down clock (same trick as bench_serve_latency): stretches the
  // analytic service times into the slot-budget regime so the drop policy
  // actually sheds under retransmission pressure.
  opt.clock_ghz = bench::positive_from_cli(cli, "--clock-ghz", 0.02);
  opt.max_harq = cli.get_u32("--max-harq", 2);
  opt.harq_ber = cli.get_double("--harq-ber", 0.01);
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
  std::printf("aggregates bit-identical across worker counts: %s\n",
              ok ? "yes" : "NO");

  rep.add_meta("backend", opt.backend);
  rep.add_meta("cluster", opt.cluster.name);
  rep.add_meta("shards", std::to_string(opt.shards));
  rep.add_meta("overload", opt.overload);
  rep.add_meta("max_harq", std::to_string(opt.max_harq));
  for (const auto& g : serial.groups) {
    auto& row = rep.add_row(g.label);
    row.cluster = opt.cluster.name;
    row.metric("slots", static_cast<double>(g.slots), "count", true, "exact");
    row.metric("ber", g.ber, "rate", true, "exact");
    row.metric("admitted", static_cast<double>(g.admitted), "count", true,
               "exact");
    row.metric("dropped", static_cast<double>(g.dropped), "count", true,
               "exact");
    row.metric("harq_retx", static_cast<double>(g.harq_retx), "count", true,
               "exact");
    row.metric("harq_recovered", static_cast<double>(g.harq_recovered),
               "count", true, "exact");
    row.metric("harq_exhausted", static_cast<double>(g.harq_exhausted),
               "count", true, "exact");
    row.metric("deadline_misses", static_cast<double>(g.deadline_misses),
               "count", true, "exact");
    row.metric("latency_p99", 1e6 * g.latency.percentile(0.99), "us", true,
               "exact");
  }
  auto& totals = rep.add_row("totals");
  totals.metric("total_slots", static_cast<double>(serial.total_slots),
                "count", true, "exact");
  totals.metric("admitted", static_cast<double>(serial.admitted), "count",
                true, "exact");
  totals.metric("dropped", static_cast<double>(serial.dropped), "count", true,
                "exact");
  totals.metric("harq_retx", static_cast<double>(serial.harq_retx), "count",
                true, "exact");
  totals.metric("harq_recovered", static_cast<double>(serial.harq_recovered),
                "count", true, "exact");
  totals.metric("harq_exhausted", static_cast<double>(serial.harq_exhausted),
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
  totals.metric("virtual_makespan_ms", 1e3 * serial.virtual_makespan_s, "ms",
                true, "exact");
  totals.metric("worker_invariant", ok ? 1.0 : 0.0, "bool", true, "higher");
  return bench::emit(rep, json_path) | (ok ? 0 : 1);
}
