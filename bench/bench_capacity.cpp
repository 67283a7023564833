// Capacity search: the maximum sustained traffic load the sharded serving
// engine holds while every cell's p99 virtual latency stays inside its
// 1 ms / 2^mu slot budget (paper §II's real-time criterion, asked in the
// inverse direction: not "does this load fit" but "how much load fits").
//
// A fixed-seed multi-cell Traffic_source is scaled by a load multiplier and
// probed through the scheduler in virtual-only mode - the analytic MAC
// service model (Table I) through the per-shard FCFS queues, no backend
// execution - so each probe costs microseconds and the whole search is
// bit-deterministic on any host.  The feasible region is bracketed by a
// binary search with dyadic midpoints (0.5 * (lo + hi), exact in doubles)
// and a fixed --iters budget, so the reported capacity is reproducible to
// the last bit and gates the quick baseline as an "exact" metric.
//
//   ./bench/bench_capacity [--slots 160] [--shards 2]
//       [--placement load-aware] [--overload off] [--iters 12]
//       [--max-scale 8] [--clock-ghz 0.005] [--servers 1] [--seed 1]
//       [--json out.json]                   (an unknown flag exits 2)
//
// The default scaled-down clock (0.005 GHz) puts every toy cell's bare
// service at 0.3-0.4 of its slot budget - in the spirit of the paper's §VI
// regime (the full 4096-point slot fills most of its 0.5 ms budget at
// 1 GHz) but with enough slack that the capacity limit comes from queueing
// collisions, not from a single slot's compute.  The headline is the
// offered uplink throughput at the capacity point, normalized per virtual
// cluster (Gb/s per cluster).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/traffic.h"

namespace {

using namespace pp;

// The fixed four-cell mix under search: a mu=1 macro cell, a 4-layer mu=0
// cell (the wider budget absorbs its heavier MIMO stages), two mu=2 small
// cells - mixed numerology, UE count and QAM order, all at unit base load
// so the search's scale is the per-cell offered load.
runtime::Traffic_config base_traffic(uint64_t n_slots, uint64_t seed) {
  runtime::Traffic_config cfg;
  cfg.n_slots = n_slots;
  cfg.base_seed = seed;
  runtime::Traffic_cell macro;
  macro.mu = 1;
  macro.fft_size = 64;
  macro.n_ue = 2;
  macro.qam = phy::Qam::qam16;
  macro.load = 1.0;
  runtime::Traffic_cell dense = macro;
  dense.mu = 0;
  dense.n_ue = 4;
  runtime::Traffic_cell small;
  small.mu = 2;
  small.fft_size = 16;
  small.n_ue = 2;
  small.qam = phy::Qam::qpsk;
  small.load = 1.0;
  runtime::Traffic_cell tiny = small;
  tiny.n_ue = 1;
  cfg.cells = {macro, dense, small, tiny};
  return cfg;
}

runtime::Traffic_config scaled(runtime::Traffic_config cfg, double scale) {
  for (auto& cell : cfg.cells) cell.load *= scale;
  return cfg;
}

// Feasibility criterion: nothing shed and every cell that carried
// deadlines holds p99 latency within its slot budget.
bool feasible(const runtime::Schedule_result& res,
              const runtime::Traffic_config& cfg) {
  if (res.dropped > 0) return false;
  for (size_t c = 0; c < res.groups.size(); ++c) {
    const auto& g = res.groups[c];
    if (g.deadline_slots == 0) continue;
    if (g.latency.percentile(0.99) > cfg.cells[c].budget_seconds()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  bench::banner("[§II]", "capacity search: max sustained load vs. p99 budget",
                "Binary search over the Traffic_source load multiplier for "
                "the largest sustained\nload whose per-cell p99 virtual "
                "latency stays inside the 1 ms / 2^mu budget.\nProbes run "
                "the analytic service model only (virtual-only scheduler), "
                "so the\nsearch is bit-deterministic on every host and "
                "backend.");
  auto rep = bench::make_report("bench_capacity", "[§II]",
                                "max sustained load holding p99 in budget");

  const uint64_t n_slots = bench::slots_from_cli(cli, 160);
  const uint64_t seed = cli.get_u32("--seed", 1);
  const uint32_t iters = cli.get_u32("--iters", 12);
  const double max_scale = bench::positive_from_cli(cli, "--max-scale", 8.0);

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli);
  opt.cluster = bench::cluster_from_cli(cli, "minipool");
  opt.workers = 1;
  opt.keep_slots = false;
  opt.virtual_only = true;  // deadline surface only - probes cost ~us
  opt.service_units = bench::servers_from_cli(cli);
  opt.clock_ghz = bench::positive_from_cli(cli, "--clock-ghz", 0.005);
  opt.shards = bench::shards_from_cli(cli, 2);
  opt.placement = bench::placement_from_cli(cli, "load-aware");
  opt.overload = bench::overload_from_cli(cli);
  opt.queue_limit = cli.get_u32("--queue-limit", 8);
  opt.degrade_min_ue = cli.get_u32("--min-ue", 1);
  const std::string json_path = cli.get("--json", "");
  cli.reject_unknown();
  const runtime::Slot_scheduler scheduler(opt);

  const runtime::Traffic_config base = base_traffic(n_slots, seed);
  auto probe = [&](double scale) {
    return scheduler.run(runtime::Traffic_source(scaled(base, scale)));
  };

  // Bracket [lo, hi): lo feasible (0 = no offered load, trivially so), hi
  // infeasible unless the whole range fits.  Dyadic midpoints + a fixed
  // iteration count make every probe point - and so the result - exact.
  double lo = 0.0, hi = max_scale;
  uint32_t probes = 0;
  if (feasible(probe(max_scale), base)) {
    lo = max_scale;  // saturated search: report the range end
    ++probes;
  } else {
    ++probes;
    for (uint32_t i = 0; i < iters; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (feasible(probe(mid), base)) {
        lo = mid;
      } else {
        hi = mid;
      }
      ++probes;
    }
  }
  const double capacity = lo;

  // Score the capacity point once more for the reported surface, and
  // re-run it to pin the probe's bit-determinism.
  const auto at_cap = probe(capacity > 0.0 ? capacity : max_scale);
  const bool deterministic = at_cap.deterministic_equal(
      probe(capacity > 0.0 ? capacity : max_scale));

  const uint32_t clusters = opt.shards * std::max(1u, opt.service_units);
  const double offered_gbps =
      runtime::offered_bits_per_second(base) * capacity / 1e9;
  const double gbps_per_cluster = offered_gbps / clusters;

  std::printf("capacity: load scale %.6f (%u probes, %u iterations, "
              "bracket [0, %g])\n",
              capacity, probes, iters, max_scale);
  std::printf("offered at capacity: %.6f Gb/s over %u virtual clusters "
              "(%u shard%s x %u server%s) -> %.6f Gb/s per cluster\n",
              offered_gbps, clusters, opt.shards,
              opt.shards == 1 ? "" : "s", opt.service_units,
              opt.service_units == 1 ? "" : "s", gbps_per_cluster);
  std::printf("at capacity: %llu/%llu deadline misses, %llu dropped, "
              "%llu degraded, p99 %.1f us\n",
              static_cast<unsigned long long>(at_cap.deadline_misses),
              static_cast<unsigned long long>(at_cap.deadline_slots),
              static_cast<unsigned long long>(at_cap.dropped),
              static_cast<unsigned long long>(at_cap.degraded),
              1e6 * at_cap.latency.percentile(0.99));
  std::printf("probe determinism re-check: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  rep.add_meta("cluster", opt.cluster.name);
  rep.add_meta("shards", std::to_string(opt.shards));
  rep.add_meta("servers", std::to_string(opt.service_units));
  rep.add_meta("placement", opt.placement);
  rep.add_meta("overload", opt.overload);
  rep.add_meta("iters", std::to_string(iters));
  rep.add_meta("slots", std::to_string(n_slots));
  auto& row = rep.add_row("capacity");
  row.cluster = opt.cluster.name;
  row.metric("capacity_load_scale", capacity, "x", true, "exact");
  row.metric("capacity_gbps_per_cluster", gbps_per_cluster, "Gb/s", true,
             "exact");
  row.metric("offered_gbps", offered_gbps, "Gb/s", true, "exact");
  row.metric("probes", static_cast<double>(probes), "count", true, "exact");
  row.metric("deadline_misses_at_capacity",
             static_cast<double>(at_cap.deadline_misses), "count", true,
             "exact");
  row.metric("latency_p99_at_capacity_us",
             1e6 * at_cap.latency.percentile(0.99), "us", true, "exact");
  row.metric("probe_deterministic", deterministic ? 1.0 : 0.0, "bool", true,
             "higher");
  return bench::emit(rep, json_path) | (deterministic ? 0 : 1);
}
