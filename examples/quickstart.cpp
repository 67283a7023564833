// Quickstart: drive a kernel through the runtime registry, then a whole
// PUSCH slot through a Pipeline on both backends.
//
// Part 1 instantiates the paper's parallel FFT kernel by name
// ("fft.parallel") on a 256-core MemPool machine, runs sixteen 256-point
// FFTs in parallel, checks one output against the reference DFT, and prints
// the cycle/IPC report plus the speedup over a single-core run.
//
// Part 2 builds the end-to-end uplink pipeline preset and executes the same
// scaled-down scenario on the cycle-approximate "sim" backend and on the
// double-precision "reference" backend, showing the golden cross-check.
//
//   ./examples/quickstart
//
// It takes no flags: any flag exits 2, and --help prints that it accepts
// none.
#include <cstdio>

#include "baseline/reference.h"
#include "common/cli.h"
#include "runtime/backend.h"
#include "runtime/presets.h"
#include "runtime/registry.h"

int main(int argc, char** argv) {
  using namespace pp;
  common::Cli(argc, argv).reject_unknown();

  const auto cfg = arch::Cluster_config::mempool();
  std::printf("cluster: %s (%u cores, %u groups x %u tiles x %u cores, "
              "%u banks)\n",
              cfg.name.c_str(), cfg.n_cores(), cfg.n_groups,
              cfg.tiles_per_group, cfg.cores_per_tile, cfg.n_banks());

  // ---- part 1: one kernel through the registry ------------------------
  sim::Machine m(cfg);
  arch::L1_alloc alloc(m.config());

  const uint32_t n = 256;
  const uint32_t n_ffts = 16;
  auto fft = runtime::make_kernel(
      "fft.parallel", m, alloc,
      runtime::Params().set("n", n).set("inst", n_ffts));
  auto serial = runtime::make_kernel("fft.serial", m, alloc,
                                     runtime::Params().set("n", n));

  // Random Q1.15 input signals, bound by (port, slot).
  common::Rng rng(1);
  std::vector<std::vector<common::cq15>> inputs(n_ffts);
  for (uint32_t i = 0; i < n_ffts; ++i) {
    inputs[i].resize(n);
    for (auto& v : inputs[i]) v = common::to_cq15(rng.cnormal() * 0.2);
    fft->bind("x", i, inputs[i]);
  }
  serial->bind("x", 0, inputs[0]);

  const auto par = fft->launch();
  const auto ser = serial->launch();

  // Verify one instance against the double-precision DFT.
  std::vector<ref::cd> x(n);
  for (uint32_t i = 0; i < n; ++i) x[i] = common::to_cd(inputs[0][i]);
  const auto want = ref::dft(x);
  const auto got = fft->fetch("y", 0);
  std::vector<ref::cd> got_d(n);
  for (uint32_t i = 0; i < n; ++i) got_d[i] = common::to_cd(got[i]);
  std::printf("fixed-point accuracy: %.1f dB SQNR vs reference DFT\n",
              ref::sqnr_db(want, got_d));

  std::printf("\nparallel: %u FFTs x %u points on %u cores\n", n_ffts, n,
              par.n_cores);
  std::printf("  cycles %lu | IPC %.2f | raw %.1f%% lsu %.1f%% wfi %.1f%%\n",
              static_cast<unsigned long>(par.cycles), par.ipc(),
              100 * par.frac(sim::Stall::raw), 100 * par.frac(sim::Stall::lsu),
              100 * par.frac(sim::Stall::wfi));
  std::printf("serial: 1 FFT x %u points on 1 core -> %lu cycles\n", n,
              static_cast<unsigned long>(ser.cycles));
  std::printf("speedup vs one core doing all %u FFTs: %.0fx (limit %u)\n",
              n_ffts,
              static_cast<double>(ser.cycles) * n_ffts / par.cycles,
              par.n_cores);

  // ---- part 2: a whole slot through the Pipeline, on both backends ----
  phy::Uplink_config ucfg;
  ucfg.n_sc = 64;
  ucfg.fft_size = 64;
  ucfg.n_rx = 4;
  ucfg.n_beams = 4;
  ucfg.n_ue = 2;
  ucfg.n_symb = 4;
  ucfg.n_pilot_symb = 2;
  ucfg.qam = phy::Qam::qpsk;
  ucfg.sigma2 = 1e-7;
  ucfg.ue_power = 0.08;
  const phy::Uplink_scenario sc(ucfg);

  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());
  std::printf("\npipeline '%s' on a %u-core cluster:\n",
              pipeline.name().c_str(), pipeline.cluster().n_cores());
  for (const auto& backend_name : {"sim", "reference"}) {
    auto backend = runtime::make_backend(backend_name);
    const auto res = pipeline.execute(sc, *backend);
    std::printf("  %-9s backend: EVM %5.2f%% | BER %.2e | %lu cycles\n",
                res.backend.c_str(), 100 * res.evm, res.ber,
                static_cast<unsigned long>(res.total_cycles()));
  }
  return 0;
}
