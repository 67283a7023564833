// Sustained multi-cell PUSCH traffic through the streaming slot scheduler.
//
// Generates a deterministic stochastic workload (runtime::Traffic_source:
// per-cell Poisson arrivals, mixed numerology / UE count / QAM order) and
// serves it on a worker pool (runtime::Slot_scheduler), scoring every slot
// against its numerology slot budget (paper §II: a PUSCH slot must finish
// within 1 ms / 2^mu).
//
//   ./examples/pusch_serve                               # 2 cells, 64 slots
//   ./examples/pusch_serve --cells 2 --slots 128 --load 0.8
//       --mu 1,0 --fft 64,256 --ue 2,4 --qam 16,64 --snr 30
//       --backend reference --workers 4
//   ./examples/pusch_serve --backend sim --arch minipool --clock-ghz 0.02
//   ./examples/pusch_serve --shards 2 --placement load-aware
//       --overload degrade --load 1.5                    # sharded serving
//   ./examples/pusch_serve --channel tdl-a,flat --doppler 200
//       --snr 12 --max-harq 3 --harq-ber 0.02            # fading + HARQ
//   ./examples/pusch_serve --list                        # name catalog
//
// Cell i draws its parameters from position i (mod length) of the --mu,
// --fft, --ue, --qam, --snr, --load, --channel, --doppler and
// --delay-spread lists.  --channel picks each cell's fading profile
// (phy/channel.h: flat | tdl-a | tdl-c); --max-harq N closes the HARQ
// loop - slots decoding above --harq-ber re-enter the stream as chase-
// combined retransmissions, at most N per slot, admitted against the same
// capacity as the exogenous traffic.  Each of the --workers threads
// serves whole slots; --intra N additionally splits every kernel inside the
// "parallel" and "fixed" backends.  Deadline metrics run on the
// deterministic virtual clock - simulated cycles at --clock-ghz on the sim
// backend, the analytic MAC model on host backends, drained by --servers
// virtual clusters - so miss counts and latency percentiles are
// bit-identical for any --workers (docs/DETERMINISM.md).
//
// Sharded serving (docs/DETERMINISM.md §8): --shards N runs N scheduler
// shards, each its own FCFS virtual-clock queue of --servers clusters;
// --placement picks how cells map onto shards and --overload puts an
// admission controller (drop / queue / degrade, with --queue-limit and
// --min-ue) in front of every shard's queue.  --json <path> emits the
// aggregate report in the pp-bench-report-v1 schema, including per-cell and
// per-shard admitted/dropped/degraded counters.  An unknown flag exits 2
// with the list of accepted ones.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/traffic.h"

namespace {

using namespace pp;

// Range checks on top of Cli's validated parsing, same readable error +
// exit-2 convention - out-of-range values must not reach the library
// layer's PP_CHECK aborts.
[[noreturn]] void bad_range(const char* flag, const char* what) {
  std::fprintf(stderr, "%s for %s\n", what, flag);
  std::exit(2);
}

template <typename T>
const T& cycle(const std::vector<T>& v, size_t i) {
  return v[i % v.size()];
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  if (cli.has("--list")) {
    bench::print_catalog();
    return 0;
  }

  runtime::Traffic_config traffic;
  traffic.n_slots = bench::slots_from_cli(cli, 64);
  traffic.base_seed = cli.get_u32("--seed", 1);
  traffic.n_rx = cli.get_u32("--rx", 4);
  traffic.n_beams = cli.get_u32("--beams", 4);
  traffic.n_symb = cli.get_u32("--symb", 4);

  const auto mu = cli.get_u32_list("--mu", "1,0");
  const auto fft = cli.get_u32_list("--fft", "64");
  const auto ue = cli.get_u32_list("--ue", "2");
  const auto qam = cli.get_u32_list("--qam", "16");
  const auto snr = cli.get_double_list("--snr", "30");
  const auto load = cli.get_double_list("--load", "0.5");
  const auto budget_us = cli.get_double_list("--budget-us", "0");
  const auto channel = cli.get_str_list("--channel", "flat");
  const auto doppler = cli.get_double_list("--doppler", "0");
  const auto delay_spread = cli.get_double_list("--delay-spread", "4");

  const uint32_t n_cells = cli.get_u32("--cells", 2);
  if (n_cells < 1) bad_range("--cells", "need at least one cell");
  traffic.cells.clear();
  for (uint32_t c = 0; c < n_cells; ++c) {
    runtime::Traffic_cell cell;
    cell.mu = cycle(mu, c);
    if (cell.mu > 6) bad_range("--mu", "numerology out of range (0..6)");
    cell.fft_size = cycle(fft, c);
    cell.n_ue = cycle(ue, c);
    cell.qam = bench::qam_from_order(cycle(qam, c));
    cell.snr_db = cycle(snr, c);
    cell.load = cycle(load, c);
    if (!(cell.load > 0.0)) bad_range("--load", "load must be positive");
    cell.budget_s = cycle(budget_us, c) * 1e-6;  // 0 = numerology budget
    if (cell.budget_s < 0.0) bad_range("--budget-us", "budget must be >= 0");
    cell.profile = bench::channel_by_name(cycle(channel, c));
    cell.doppler_hz = cycle(doppler, c);
    if (cell.doppler_hz < 0.0) bad_range("--doppler", "Doppler must be >= 0");
    cell.delay_spread = cycle(delay_spread, c);
    if (!(cell.delay_spread > 0.0)) {
      bad_range("--delay-spread", "delay spread must be positive");
    }
    traffic.cells.push_back(cell);
  }

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli);
  opt.workers = cli.get_u32("--workers", 0);
  opt.intra = cli.get_u32("--intra", 1);
  opt.cluster = bench::cluster_from_cli(cli, "minipool");
  opt.keep_slots = false;  // the CLI only reports the roll-up
  opt.service_units = bench::servers_from_cli(cli);
  opt.clock_ghz = bench::positive_from_cli(cli, "--clock-ghz", 1.0);
  opt.shards = bench::shards_from_cli(cli, 1);
  opt.placement = bench::placement_from_cli(cli);
  opt.overload = bench::overload_from_cli(cli);
  opt.queue_limit = cli.get_u32("--queue-limit", 8);
  opt.degrade_min_ue = cli.get_u32("--min-ue", 1);
  if (opt.degrade_min_ue < 1) {
    bad_range("--min-ue", "the degrade floor must keep one UE layer");
  }
  // HARQ retransmission loop: failed decodes (BER above --harq-ber) re-enter
  // the stream as retransmissions with chase combining, at most --max-harq
  // per slot.  0 keeps the pre-HARQ open-loop engine.
  opt.max_harq = cli.get_u32("--max-harq", 0);
  opt.harq_ber = cli.get_double("--harq-ber", 0.0);
  if (opt.harq_ber < 0.0 || opt.harq_ber > 1.0) {
    bad_range("--harq-ber", "BER threshold must be in [0, 1]");
  }
  const std::string json_path = cli.get("--json", "");
  cli.reject_unknown();

  const runtime::Traffic_source source(traffic);
  std::printf("serve: %llu slots over %zu cell%s on '%s' (%s cluster), "
              "%u shard%s (%s placement, %s overload) of %u virtual "
              "server%s at %.3f GHz\n",
              static_cast<unsigned long long>(source.n_slots()),
              traffic.cells.size(), traffic.cells.size() == 1 ? "" : "s",
              opt.backend.c_str(), opt.cluster.name.c_str(), opt.shards,
              opt.shards == 1 ? "" : "s", opt.placement.c_str(),
              opt.overload.c_str(), opt.service_units,
              opt.service_units == 1 ? "" : "s", opt.clock_ghz);
  const runtime::Slot_scheduler scheduler(opt);
  const auto res = scheduler.run(source);
  std::fputs(res.str().c_str(), stdout);

  // Machine-readable aggregate: the deterministic virtual-clock metrics
  // (slot counts, deadline misses, latency percentiles, bit-exact EVM/BER)
  // gate the baseline; wall-clock throughput is informational.
  auto rep = bench::make_report("pusch_serve", "[§II]",
                                "sustained multi-cell PUSCH traffic");
  rep.add_meta("backend", res.backend);
  rep.add_meta("cluster", opt.cluster.name);
  rep.add_meta("workers", std::to_string(res.workers));
  rep.add_meta("servers", std::to_string(opt.service_units));
  rep.add_meta("shards", std::to_string(opt.shards));
  rep.add_meta("placement", res.placement);
  rep.add_meta("overload", res.overload);
  if (opt.max_harq > 0) {
    rep.add_meta("max_harq", std::to_string(opt.max_harq));
  }
  for (size_t c = 0; c < res.groups.size(); ++c) {
    const auto& g = res.groups[c];
    auto& row = rep.add_row(g.label);
    row.cluster = opt.cluster.name;
    row.metric("slots", static_cast<double>(g.slots), "count", true, "exact");
    row.metric("shard", static_cast<double>(g.shard), "id", true, "exact");
    row.metric("admitted", static_cast<double>(g.admitted), "count", true,
               "exact");
    row.metric("dropped", static_cast<double>(g.dropped), "count", true,
               "exact");
    row.metric("degraded", static_cast<double>(g.degraded), "count", true,
               "exact");
    row.metric("evm", g.evm, "rms", true, "exact");
    row.metric("ber", g.ber, "rate", true, "exact");
    row.metric("deadline_misses", static_cast<double>(g.deadline_misses),
               "count", true, "lower");
    row.metric("latency_p50", 1e6 * g.latency.percentile(0.50), "us", true,
               "lower");
    row.metric("latency_p99", 1e6 * g.latency.percentile(0.99), "us", true,
               "lower");
    if (opt.max_harq > 0) {
      row.metric("harq_retx", static_cast<double>(g.harq_retx), "count", true,
                 "exact");
      row.metric("harq_recovered", static_cast<double>(g.harq_recovered),
                 "count", true, "exact");
      row.metric("harq_exhausted", static_cast<double>(g.harq_exhausted),
                 "count", true, "exact");
    }
    if (g.cycles) {
      row.metric("cycles", static_cast<double>(g.cycles), "cycles");
    }
  }
  for (size_t s = 0; s < res.shards.size(); ++s) {
    const auto& sh = res.shards[s];
    auto& row = rep.add_row("shard" + std::to_string(s));
    row.cluster = opt.cluster.name;
    row.metric("groups", static_cast<double>(sh.groups), "count", true,
               "exact");
    row.metric("slots", static_cast<double>(sh.slots), "count", true, "exact");
    row.metric("admitted", static_cast<double>(sh.admitted), "count", true,
               "exact");
    row.metric("dropped", static_cast<double>(sh.dropped), "count", true,
               "exact");
    row.metric("degraded", static_cast<double>(sh.degraded), "count", true,
               "exact");
    row.metric("deadline_misses", static_cast<double>(sh.deadline_misses),
               "count", true, "lower");
    row.metric("latency_p99", 1e6 * sh.latency.percentile(0.99), "us", true,
               "lower");
  }
  auto& totals = rep.add_row("totals");
  totals.metric("total_slots", static_cast<double>(res.total_slots), "count",
                true, "exact");
  totals.metric("admitted", static_cast<double>(res.admitted), "count", true,
                "exact");
  totals.metric("dropped", static_cast<double>(res.dropped), "count", true,
                "exact");
  totals.metric("degraded", static_cast<double>(res.degraded), "count", true,
                "exact");
  totals.metric("deadline_slots", static_cast<double>(res.deadline_slots),
                "count", true, "exact");
  totals.metric("deadline_misses", static_cast<double>(res.deadline_misses),
                "count", true, "lower");
  totals.metric("latency_p50", 1e6 * res.latency.percentile(0.50), "us", true,
                "lower");
  totals.metric("latency_p99", 1e6 * res.latency.percentile(0.99), "us", true,
                "lower");
  totals.metric("latency_p999", 1e6 * res.latency.percentile(0.999), "us",
                true, "lower");
  totals.metric("virtual_makespan_ms", 1e3 * res.virtual_makespan_s, "ms",
                true, "lower");
  if (opt.max_harq > 0) {
    totals.metric("harq_retx", static_cast<double>(res.harq_retx), "count",
                  true, "exact");
    totals.metric("harq_recovered", static_cast<double>(res.harq_recovered),
                  "count", true, "exact");
    totals.metric("harq_exhausted", static_cast<double>(res.harq_exhausted),
                  "count", true, "exact");
  }
  totals.metric("slots_per_s", res.slots_per_second(), "slots/s", false,
                "info");
  totals.metric("wall_service_p99_us",
                1e6 * res.wall_service.percentile(0.99), "us", false, "info");
  totals.metric("wall_synth_p50_us", 1e6 * res.wall_synth.percentile(0.50),
                "us", false, "info");
  return bench::emit(rep, json_path);
}
