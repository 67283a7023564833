// Fixed-point host backend wall-clock: scalar vs. SIMD vs. the
// double-precision reference on the same slot.
//
// Times the full receive chain through three host backends - the Q15
// subsystem (src/fixed/) with its vector paths forced off, the same with
// SIMD on (AVX2 where the host supports it), and "reference" -
// interleaved in one process (bench::time_interleaved, kReps rounds), so
// each ratio compares runs that saw the same host conditions; the table
// states each side's median and spread.  Stage rows isolate the kernels the
// vector lanes target, on synthetic operands of the slot's shape, each
// scalar vs. SIMD and as often per slot as the backend runs them: the LMMSE
// factor (Gramian + Cholesky, once per slot), the LMMSE solve (matched
// filter + both substitutions, once per data symbol) and the beamforming
// MMM.  The scalar and SIMD runs are checked bit-identical on every
// invocation (the contract
// of docs/DETERMINISM.md section 7); sim parity is covered by
// tests/test_backend_fixed.cpp, not re-run here (the simulator is orders of
// magnitude slower).
//
//   ./bench/bench_fixed_host                       # 1 intra-slot worker
//   ./bench/bench_fixed_host --workers 4 --fft 4096 --symb 14
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "runtime/backend_fixed.h"
#include "runtime/presets.h"

namespace {

using namespace pp;
using common::cq15;
using common::Table;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Payload bits a slot delivers (all UEs).
double payload_bits(const runtime::Slot_result& r) {
  double bits = 0;
  for (const auto& b : r.bits) bits += static_cast<double>(b.size());
  return bits;
}

std::string ms_cell(const bench::Metric& m) {
  return Table::fmt(m.median * 1e3, 2) + " +/-" + Table::pct(m.spread);
}

// Interleaved timing rounds per comparison.
constexpr uint32_t kReps = 5;

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const uint32_t workers = std::max(1u, cli.get_u32("--workers", 1));
  const uint32_t fft_size = cli.get_u32("--fft", 1024);
  const uint32_t n_symb = cli.get_u32("--symb", 8);
  const std::string json_path = cli.get("--json", "");
  cli.reject_unknown();

  bench::banner("[host]", "fixed-point host backend wall-clock",
                "Q15 scalar vs. SIMD vs. double reference on one slot, "
                "interleaved; scalar/SIMD checked bit-identical on every run");
  std::printf("host: %u hardware threads, SIMD path: %s, %u interleaved "
              "reps\n\n",
              std::thread::hardware_concurrency(), fixed::simd_isa(), kReps);

  // A heavy slot so the kernel loops dominate the marshaling.
  phy::Uplink_config cfg;
  cfg.n_sc = fft_size;
  cfg.fft_size = fft_size;
  cfg.n_rx = 8;
  cfg.n_beams = 8;
  cfg.n_ue = 4;
  cfg.n_symb = n_symb;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam64;
  cfg.seed = 7;
  const phy::Uplink_scenario sc(cfg);
  const runtime::Pipeline pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Fixed_backend scalar(workers, false);
  runtime::Fixed_backend simd(workers, true);
  const auto reference = runtime::make_backend("reference");

  runtime::Slot_result res_scalar, res_simd, res_ref;
  const auto slot = bench::time_interleaved(
      kReps, {[&] { pipeline.execute_into(sc, scalar, res_scalar); },
              [&] { pipeline.execute_into(sc, simd, res_simd); },
              [&] { pipeline.execute_into(sc, *reference, res_ref); }});

  const bool parity = res_scalar.bits == res_simd.bits &&
                      res_scalar.evm == res_simd.evm &&
                      res_scalar.ber == res_simd.ber &&
                      res_scalar.sigma2_hat == res_simd.sigma2_hat;
  if (!parity) {
    std::fprintf(stderr, "fixed scalar/SIMD results not bit-identical\n");
    return 1;
  }

  const auto w_scalar = bench::wall_metric("wall", slot[0]);
  const auto w_simd = bench::wall_metric("wall", slot[1]);
  const auto w_ref = bench::wall_metric("wall", slot[2]);

  Table t({"backend", "slot ms (median +/-spread)", "vs fixed-scalar"});
  t.add_row({"fixed (scalar)", ms_cell(w_scalar), Table::fmt(1.0, 2)});
  t.add_row({std::string("fixed (") + fixed::simd_isa() + ")",
             ms_cell(w_simd), Table::fmt(w_scalar.median / w_simd.median, 2)});
  t.add_row({"reference (double)", ms_cell(w_ref),
             Table::fmt(w_scalar.median / w_ref.median, 2)});
  std::fputs(t.str().c_str(), stdout);
  std::printf("\nscalar and %s runs are bit-identical (EVM %.4f%%, BER "
              "%.2e).\n",
              fixed::simd_isa(), 100 * res_simd.evm, res_simd.ber);
  // Headline: decoded payload per second per host core, for scale beside
  // the 66-Gb/s SDR-uplink cluster (PAPERS.md) - not a like-for-like
  // comparison (different silicon, different receive chain).
  const double mbps_per_core =
      payload_bits(res_simd) / w_simd.median / workers / 1e6;
  std::printf("fixed (%s) payload rate: %.1f Mb/s per host core "
              "(66-Gb/s SDR cluster for scale)\n",
              fixed::simd_isa(), mbps_per_core);

  // ---- stage rows: the LMMSE factor and solve, the beamforming MMM ------
  // Synthetic operands of the slot's shape at the backend's scales: channel
  // estimates a quarter of full scale (the CHE -> Gramian hand-off), beam
  // rows and spectra at full scale.
  const uint32_t n = fft_size, n_b = cfg.n_beams, n_l = cfg.n_ue;
  const uint32_t n_data = n_symb - cfg.n_pilot_symb;
  common::Rng rng(cfg.seed);
  std::vector<cq15> h(static_cast<size_t>(n) * n_b * n_l);
  for (auto& v : h) v = common::to_cq15(rng.cnormal() * 0.05);
  const auto y = bench::random_signal(static_cast<size_t>(n) * n_b, 3, 0.3);
  const cq15 sigma{common::to_q15(0.01), 0};
  std::vector<cq15> l_scalar(static_cast<size_t>(n) * n_l * n_l),
      l_simd(l_scalar.size());
  std::vector<cq15> x_scalar(static_cast<size_t>(n) * n_l),
      x_simd(x_scalar.size());
  const auto mimo = bench::time_interleaved(
      kReps,
      {[&] {
         fixed::lmmse_factor(h.data(), sigma, l_scalar.data(), n_b, n_l, 0, n,
                             false);
       },
       [&] {
         fixed::lmmse_factor(h.data(), sigma, l_simd.data(), n_b, n_l, 0, n,
                             true);
       },
       [&] {
         for (uint32_t s = 0; s < n_data; ++s) {
           fixed::lmmse_solve(h.data(), l_scalar.data(), y.data(),
                              x_scalar.data(), n_b, n_l, 0, n, false);
         }
       },
       [&] {
         for (uint32_t s = 0; s < n_data; ++s) {
           fixed::lmmse_solve(h.data(), l_simd.data(), y.data(),
                              x_simd.data(), n_b, n_l, 0, n, true);
         }
       }});
  const uint32_t n_rows = n * n_symb;
  const auto a = bench::random_signal(static_cast<size_t>(n_rows) * cfg.n_rx,
                                      4, 0.3);
  const auto bq = bench::random_signal(static_cast<size_t>(cfg.n_rx) * n_b, 5,
                                       0.3);
  std::vector<cq15> c_scalar(static_cast<size_t>(n_rows) * n_b),
      c_simd(c_scalar.size());
  const auto bf = bench::time_interleaved(
      kReps, {[&] {
                fixed::mmm_rows(a.data(), bq.data(), c_scalar.data(), cfg.n_rx,
                                n_b, 0, n_rows, false);
              },
              [&] {
                fixed::mmm_rows(a.data(), bq.data(), c_simd.data(), cfg.n_rx,
                                n_b, 0, n_rows, true);
              }});
  if (l_scalar != l_simd || x_scalar != x_simd || c_scalar != c_simd) {
    std::fprintf(stderr, "fixed stage kernels: scalar/SIMD outputs differ\n");
    return 1;
  }
  const auto w_factor_scalar = bench::wall_metric("scalar_wall", mimo[0]);
  const auto w_factor_simd = bench::wall_metric("simd_wall", mimo[1]);
  const auto w_solve_scalar = bench::wall_metric("scalar_wall", mimo[2]);
  const auto w_solve_simd = bench::wall_metric("simd_wall", mimo[3]);
  const auto w_bf_scalar = bench::wall_metric("scalar_wall", bf[0]);
  const auto w_bf_simd = bench::wall_metric("simd_wall", bf[1]);
  const double factor_speedup = w_factor_scalar.median / w_factor_simd.median;
  const double solve_speedup = w_solve_scalar.median / w_solve_simd.median;
  const double bf_speedup = w_bf_scalar.median / w_bf_simd.median;
  const std::string lanes = std::string(fixed::simd_isa()) + " lanes";
  const std::string solves =
      "MIMO solve (x" + std::to_string(n_data) + " data symbols): ";
  Table ts({"stage (one slot, 1 thread)", "ms (median +/-spread)",
            "vs scalar"});
  ts.add_row({"MIMO factor (once per slot): scalar", ms_cell(w_factor_scalar),
              Table::fmt(1.0, 2)});
  ts.add_row({"MIMO factor (once per slot): " + lanes, ms_cell(w_factor_simd),
              Table::fmt(factor_speedup, 2)});
  ts.add_row({solves + "scalar", ms_cell(w_solve_scalar), Table::fmt(1.0, 2)});
  ts.add_row({solves + lanes, ms_cell(w_solve_simd),
              Table::fmt(solve_speedup, 2)});
  ts.add_row({"BF MMM: scalar", ms_cell(w_bf_scalar), Table::fmt(1.0, 2)});
  ts.add_row({"BF MMM: " + lanes, ms_cell(w_bf_simd),
              Table::fmt(bf_speedup, 2)});
  std::printf("\n");
  std::fputs(ts.str().c_str(), stdout);

  // ---- steady-state serving loop: zero allocations after warm-up --------
  // Repeated execute_into() on the persistent SIMD backend with a reused
  // result: the warm-up passes grow the slot workspaces, after which the
  // measured passes must never touch the heap.  PP_COUNT_ALLOCS builds turn
  // that into a hard gate; other builds still record the (constant-0)
  // metric plus the steady wall-clock.
  constexpr uint64_t kSteadySlots = 8;
  runtime::Slot_result steady_res;
  double steady_s = 0.0;
  const double apslot = bench::allocs_per_slot(
      kSteadySlots,
      [&] {
        for (int i = 0; i < 2; ++i) {
          pipeline.execute_into(sc, simd, steady_res);
        }
      },
      [&] {
        const double t0 = now_seconds();
        for (uint64_t i = 0; i < kSteadySlots; ++i) {
          pipeline.execute_into(sc, simd, steady_res);
        }
        steady_s = (now_seconds() - t0) / kSteadySlots;
      });
  const int alloc_gate = bench::gate_steady_allocs("bench_fixed_host", apslot);
  std::printf("\nsteady state (fixed %s): %.2f ms/slot, %g allocs/slot, "
              "%zu KiB workspace\n",
              fixed::simd_isa(), steady_s * 1e3, apslot,
              simd.workspace_bytes() / 1024);

  auto rep = bench::make_report("bench_fixed_host", "[host]",
                                "fixed-point host backend wall-clock");
  rep.add_meta("hardware_threads",
               std::to_string(std::thread::hardware_concurrency()));
  rep.add_meta("simd_isa", fixed::simd_isa());
  rep.add_meta("workers", std::to_string(workers));
  rep.add_row("fixed_scalar").metric(w_scalar);
  auto& row_simd = rep.add_row("fixed_simd");
  row_simd.metric(w_simd);
  row_simd.metric("speedup_vs_scalar", w_scalar.median / w_simd.median, "x",
                  false, "info");
  row_simd.metric("vs_reference", w_ref.median / w_simd.median, "x", false,
                  "info");
  row_simd.metric("payload_mbps_per_core", mbps_per_core, "Mb/s", false,
                  "info");
  auto& row_ref = rep.add_row("reference");
  row_ref.metric(w_ref);
  row_ref.metric("fixed_scalar_vs_reference", w_scalar.median / w_ref.median,
                 "x", false, "info");
  auto& row_factor = rep.add_row("stage_mimo_factor");
  row_factor.metric(w_factor_scalar).metric(w_factor_simd);
  row_factor.metric("simd_speedup", factor_speedup, "x", false, "info");
  auto& row_solve = rep.add_row("stage_mimo_solve");
  row_solve.metric(w_solve_scalar).metric(w_solve_simd);
  row_solve.metric("simd_speedup", solve_speedup, "x", false, "info");
  auto& row_bf = rep.add_row("stage_bf");
  row_bf.metric(w_bf_scalar).metric(w_bf_simd);
  row_bf.metric("simd_speedup", bf_speedup, "x", false, "info");
  rep.add_row("parity").metric("scalar_simd_bit_identical", 1.0, "bool", true,
                               "higher");
  auto& row_steady = rep.add_row("steady");
  row_steady.metric("allocs_per_slot", apslot, "allocs/slot", true, "exact");
  row_steady.metric("steady_slot_ms", steady_s * 1e3, "ms", false, "info");
  return bench::emit(rep, json_path) | alloc_gate;
}
