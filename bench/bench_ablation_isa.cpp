// §VI future-work reproduction: the paper concludes that the 0.5 ms PUSCH
// slot budget "can be met with customization of the RISC-V cores with
// domain-specific instructions (e.g. FFT butterfly)".  This bench re-runs
// the full use case with a fused radix-4 butterfly instruction pair enabled
// and reports the slot time against the 0.5 ms target.
#include "bench/bench_util.h"
#include "runtime/presets.h"

int main(int argc, char** argv) {
  using namespace pp;
  using common::Table;
  common::Cli cli(argc, argv);

  bench::banner(
      "[§VI]", "ISA-extension ablation (paper's conclusion)",
      "Fused radix-4 butterfly instructions vs. the baseline SIMD sequence;\n"
      "target: one PUSCH slot within the 0.5 ms (500 kcycle @ 1 GHz) budget.");
  auto rep = bench::make_report("bench_ablation_isa", "[§VI]",
                                "ISA-extension ablation (paper's conclusion)");

  for (const auto& base : {arch::Cluster_config::terapool(),
                           arch::Cluster_config::mempool()}) {
    Table t({"cluster", "ISA", "FFT cycles/slot", "total cycles", "ms @ 1GHz",
             "meets 0.5 ms"});
    for (const bool fused : {false, true}) {
      runtime::Use_case_options cfg;
      cfg.cluster = base;
      cfg.cluster.isa_fused_butterfly = fused;
      cfg.batch_cholesky = true;
      const auto res = runtime::run_use_case(cfg);
      t.add_row({base.name, fused ? "fused butterfly" : "baseline",
                 Table::fmt(res.stages[0].total_cycles()),
                 Table::fmt(res.parallel_cycles),
                 Table::fmt(res.ms_at_1ghz(), 3),
                 res.ms_at_1ghz() <= 0.5 ? "yes" : "no"});
      auto& row = rep.add_row(
          base.name + (fused ? " fused butterfly" : " baseline"));
      row.cluster = base.name;
      row.metric("fft_cycles_per_slot",
                 static_cast<double>(res.stages[0].total_cycles()), "cycles");
      row.metric("total_cycles", static_cast<double>(res.parallel_cycles),
                 "cycles");
      row.metric("ms_at_1ghz", res.ms_at_1ghz(), "ms");
      row.metric("meets_slot_budget", res.ms_at_1ghz() <= 0.5 ? 1.0 : 0.0,
                 "bool", true, "higher");
    }
    t.print();
    std::printf("\n");
  }
  return bench::emit(rep, cli);
}
