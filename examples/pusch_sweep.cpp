// Scenario sweep CLI: BER/EVM-vs-SNR curves over a grid of numerologies,
// UE counts and QAM orders.  The grid (runtime::Grid_source) runs
// slot-parallel on runtime::Slot_scheduler, one result row per grid point.
//
//   ./examples/pusch_sweep                                   # small default grid
//   ./examples/pusch_sweep --backend reference --workers 8
//       --fft 64,256,1024 --ue 2,4 --qam 4,16 --snr 0:30:6 --slots 2
//   ./examples/pusch_sweep --backend sim --arch minipool --fft 64 --snr 20,30
//   ./examples/pusch_sweep --backend parallel --workers 2 --intra 4
//
// --backend picks sim, reference, parallel or fixed (--intra N sets the
// per-slot worker count of the parallel and fixed host backends, composing
// with the slot-level --workers).  List flags take comma-separated values;
// --snr also accepts lo:hi:step.  Per-slot seeds are Rng::derive_seed(
// --seed, slot_index), so results are bit-identical for any --workers and
// --intra counts (docs/DETERMINISM.md).  --list prints the registered
// clusters, backends, pipeline presets and registry kernels instead of
// running; unknown --arch/--backend names error with the same lists, and an
// unknown flag exits 2.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Readable parse failures for the float-valued --snr flag (integer flags go
// through Cli::get_u32/get_u32_list, which share this behavior): report the
// offending token and exit 2.
[[noreturn]] void bad_token(const char* flag, const std::string& tok) {
  std::fprintf(stderr, "bad value '%s' for %s\n", tok.c_str(), flag);
  std::exit(2);
}

double parse_double(const char* flag, const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size()) bad_token(flag, tok);
  return v;
}

// "a,b,c" or "lo:hi:step" (inclusive of hi, step > 0).  A range that
// holds no point exits 2.
std::vector<double> parse_snr_list(const std::string& s) {
  std::vector<double> out;
  if (s.find(':') != std::string::npos) {
    const auto parts = split(s, ':');
    const double lo = parse_double("--snr", parts[0]);
    const double hi = parts.size() > 1 ? parse_double("--snr", parts[1]) : lo;
    const double step =
        parts.size() > 2 ? parse_double("--snr", parts[2]) : 1.0;
    if (step <= 0.0) bad_token("--snr", s);
    for (double v = lo; v <= hi + 1e-9; v += step) out.push_back(v);
    if (out.empty()) {
      std::fprintf(stderr, "--snr range '%s' holds no point\n", s.c_str());
      std::exit(2);
    }
    return out;
  }
  for (const auto& tok : split(s, ',')) {
    out.push_back(parse_double("--snr", tok));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  if (cli.has("--list")) {
    bench::print_catalog();
    return 0;
  }

  runtime::Sweep_grid grid;
  grid.fft_sizes = cli.get_u32_list("--fft", "64,256");
  grid.ue_counts = cli.get_u32_list("--ue", "2");
  grid.qam_orders.clear();
  for (const uint32_t order : cli.get_u32_list("--qam", "16")) {
    grid.qam_orders.push_back(bench::qam_from_order(order));
  }
  grid.snr_db = parse_snr_list(cli.get("--snr", "10:30:5"));
  grid.slots_per_point = bench::slots_from_cli(cli, 1);
  grid.n_rx = cli.get_u32("--rx", 4);
  grid.n_beams = cli.get_u32("--beams", 4);
  grid.n_symb = cli.get_u32("--symb", 4);
  grid.base_seed = cli.get_u32("--seed", 1);
  // Channel profile shared by every grid point (flat | tdl-a | tdl-c).
  grid.profile = bench::channel_from_cli(cli);
  grid.doppler_hz = cli.get_double("--doppler", 0.0);
  grid.delay_spread = cli.get_double("--delay-spread", 4.0);

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli);
  opt.workers = cli.get_u32("--workers", 0);
  opt.intra = cli.get_u32("--intra", 1);
  opt.cluster = bench::cluster_from_cli(cli, "minipool");
  opt.keep_slots = false;  // the CLI only reports the roll-up
  cli.reject_unknown();

  std::printf("sweep: %llu points x %u slots on '%s' (%s cluster)\n",
              static_cast<unsigned long long>(grid.n_points()),
              grid.slots_per_point, opt.backend.c_str(),
              opt.cluster.name.c_str());
  const auto res =
      runtime::Slot_scheduler(opt).run(runtime::Grid_source(grid));
  std::fputs(res.str().c_str(), stdout);
  return 0;
}
