// Interactive kernel explorer: run any registry kernel on either cluster
// with chosen parameters and print the cycle/IPC/stall report.
//
//   ./examples/kernel_explorer --list
//   ./examples/kernel_explorer --kernel fft.parallel --arch terapool
//       --params n=1024,inst=4
//   ./examples/kernel_explorer --kernel mmm --params m=256,k=64,p=32
//   ./examples/kernel_explorer --kernel chol.pair --params n=32,mirrored=0
//   ./examples/kernel_explorer --kernel che --params sc=512,b=32,l=4
//
// Kernel and parameter names are exactly the registry's (see --list or
// runtime/registry.h); anything not given falls back to the kernel's
// defaults, with gang sizes resolved against the chosen cluster.  An
// unknown flag exits 2 with the accepted list; --help prints that list.
// A --params key the kernel does not take, or a malformed value
// ("m=1o"), exits 2 with the reason before the kernel runs.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/cli.h"

int main(int argc, char** argv) {
  using namespace pp;
  common::Cli cli(argc, argv);
  const bool list = cli.has("--list");
  const auto cfg = bench::cluster_from_cli(cli);
  const std::string kernel = cli.get("--kernel", "fft.parallel");
  const std::string params_text = cli.get("--params", "");
  const uint32_t seed = cli.get_u32("--seed", 1);
  cli.reject_unknown();

  if (list) {
    std::printf("registered kernels:\n");
    for (const auto& [name, summary] : runtime::Registry::instance().list()) {
      std::printf("  %-16s %s\n", name.c_str(), summary.c_str());
    }
    return 0;
  }

  const auto params = runtime::Params::parse(params_text);

  if (!runtime::Registry::instance().contains(kernel)) {
    std::fprintf(stderr, "unknown --kernel %s (try --list)\n", kernel.c_str());
    return 2;
  }

  std::printf("%s: %u cores, %.0f KiB L1\n\n", cfg.name.c_str(), cfg.n_cores(),
              cfg.l1_words() * 4.0 / 1024.0);

  const auto r = bench::measure_kernel(cfg, kernel, params, seed);
  std::printf("%s\n", r.desc.label().c_str());
  std::printf("  cores %u | cycles %lu | instrs %lu | IPC %.2f\n",
              r.rep.n_cores, static_cast<unsigned long>(r.rep.cycles),
              static_cast<unsigned long>(r.rep.instrs), r.rep.ipc());
  std::printf("  stalls: raw %.1f%% | lsu %.1f%% | instr$ %.1f%% | ext %.1f%% "
              "| wfi %.1f%%\n",
              100 * r.rep.frac(sim::Stall::raw),
              100 * r.rep.frac(sim::Stall::lsu),
              100 * r.rep.frac(sim::Stall::icache),
              100 * r.rep.frac(sim::Stall::extunit),
              100 * r.rep.frac(sim::Stall::wfi));
  if (r.desc.macs) {
    std::printf("  %.1f complex MACs/cycle\n",
                static_cast<double>(r.desc.macs) / r.rep.cycles);
  }
  return 0;
}
