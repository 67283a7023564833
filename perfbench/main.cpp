// PUSCH receive benchmark: one binary, four workloads.
//
//   perfbench --workload <mimo-q15|front-double|serve-mix|sim-usecase>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--git <describe>]
//
// Prints notes and one metadata line, then as its last line the result
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 runs the same workload with spans on
// and reports the per-layer metrics the workload exercises (perfbench/run.py
// fills the rest of BENCHMARK.json's per-layer list with zeros).  Exit codes:
// 0 ok, 1 an output differed from the oracle, 2 bad arguments, 3 the run is
// not measurable here (non-Release build, more threads than the host has).
#include <sched.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "fixed/simd.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mimo-q15|front-double|serve-mix|sim-usecase> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>] "
               "[--git <describe>]\n",
               why);
  std::exit(2);
}

uint64_t parse_u64(const char* flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return r;
}

uint32_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Host threads a workload keeps busy at once (see perfbench/NOTES.md).
uint32_t workload_threads(const std::string& w, uint32_t nproc) {
  if (w == "front-double" || w == "sim-usecase") return nproc;  // intra, lanes
  if (w == "serve-mix") return 2 * std::max(1u, nproc / 2);  // front + back
  return 1;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = parse_u64("--seed", v);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64("--seconds", v));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--trace-file") {
      opt.trace_file = v;
    } else if (flag == "--git") {
      git = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (opt.seconds < 1) usage("--seconds must be at least 1");

  Outcome (*run)(const Options&) = nullptr;
  if (opt.workload == "mimo-q15") run = run_mimo_q15;
  if (opt.workload == "front-double") run = run_front_double;
  if (opt.workload == "serve-mix") run = run_serve_mix;
  if (opt.workload == "sim-usecase") run = run_sim_usecase;
  if (!run) usage(("unknown workload " + opt.workload).c_str());

  // ---- guards: only optimized builds, never more threads than the host --
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: build type is '%s'; wall-clock numbers are only "
                 "meaningful from a Release build\n",
                 build_type.c_str());
    return 3;
  }
  opt.nproc = host_threads();
  const uint32_t threads = workload_threads(opt.workload, opt.nproc);
  if (threads > opt.nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u threads but the host has %u\n",
                 opt.workload.c_str(), threads, opt.nproc);
    return 3;
  }

  const Outcome out = run(opt);

  for (const auto& n : out.notes) std::printf("# %s\n", n.c_str());
  std::printf(
      "{\"meta\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"threads\":%u,\"simd_isa\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"git\":\"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.nproc, threads,
      pp::fixed::simd_isa(), json_escape(kCompiler).c_str(),
      build_type.c_str(), json_escape(git).c_str());

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string metrics;
  for (const auto& e : out.metrics.entries) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               e.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
