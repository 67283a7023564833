// sim-usecase: the paper's Fig. 9c roll-up at its own dimensions (64 rx,
// 4096-point FFT, 32 beams, 4 UEs, 14 symbols) on simulated TeraPool.
//
// One "slot" of this workload is one roll-up: every stage of the batched-
// Cholesky schedule with the CHE/NE/Gram/solve rows, plus the per-symbol
// Cholesky row of the other schedule, each measured by Pipeline::measure
// on a fresh simulated machine with report reuse off and one host thread.
// Stages run as single-stage pipelines so each gets its own host-time
// span; cycle counts are data-independent, so the sum over stages is the
// roll-up.  The oracle is the full use_case_pipeline().measure() of the
// batched schedule, taken by every lane at set-up: every repetition must
// reproduce its cycles, instructions and stalls exactly.
//
// The measured phase runs one closed-loop lane of roll-ups per host
// thread, as a design-space sweep does.  A single lane's speed follows
// whatever its vCPU's neighbours do on the shared core, and that swings
// ~1.8x over minutes; nproc lanes average it (perfbench/NOTES.md).
#include <memory>
#include <thread>

#include "bench.h"
#include "runtime/presets.h"

namespace perfbench {

namespace {

using pp::runtime::Pipeline;
using pp::runtime::Rollup_result;

constexpr int kSetupReps = 3;
constexpr int64_t kMinPerLane = 3;  // roll-ups per lane, however slow
constexpr double kPaperMs = 0.785;      // Fig. 9c, batched Cholesky, 1 GHz
constexpr double kPaperSpeedup = 871.0;  // same configuration vs one core

// Stage metric names, in use_case_pipeline() order (batched schedule with
// the estimation rows), then the per-symbol Cholesky row.
constexpr const char* kStages[] = {"fft", "bf",  "chol", "che",
                                   "ne",  "gram", "solve"};
constexpr size_t kRollupStages = std::size(kStages);
constexpr const char* kSpans[] = {"sim.fft",  "sim.bf",   "sim.chol",
                                  "sim.che",  "sim.ne",   "sim.gram",
                                  "sim.solve", "sim.chol_symb"};

struct Stage_result {
  pp::sim::Kernel_report rep;
  uint64_t times = 0;
  uint64_t serial_cycles = 0;
  bool core_set = false;
};

bool same_report(const pp::sim::Kernel_report& a,
                 const pp::sim::Kernel_report& b) {
  return a.cycles == b.cycles && a.instrs == b.instrs && a.stall == b.stall &&
         a.n_cores == b.n_cores;
}

struct Setup {
  std::vector<std::unique_ptr<Pipeline>> stages;  // kSpans order
  Rollup_result oracle;                           // batched schedule
  // The per-symbol Cholesky row is not in the oracle roll-up; its set-up
  // report stands in, and every repetition must repeat it.
  pp::sim::Kernel_report chol_symb;
};

pp::runtime::Measure_options measure_options(uint64_t seed) {
  pp::runtime::Measure_options m;
  m.seed = seed;
  m.shards = 1;
  m.reuse_reports = false;
  return m;
}

std::vector<Stage_result> roll_up(const Setup& s, uint64_t seed, Tracer* tr,
                                  int64_t slot) {
  std::vector<Stage_result> out;
  for (size_t i = 0; i < s.stages.size(); ++i) {
    Scope span(tr, kSpans[i], slot);
    const Rollup_result r = s.stages[i]->measure(measure_options(seed));
    out.push_back({r.stages.at(0).rep, r.stages.at(0).times, r.serial_cycles,
                   s.stages[i]->stages().at(0).core_set});
  }
  return out;
}

// Pipeline construction plus the oracle: the whole batched roll-up.
void set_up(const Options& opt, Setup& s) {
  pp::runtime::Use_case_options uc;
  uc.include_estimation = true;
  uc.reuse_reports = false;
  uc.batch_cholesky = true;
  const Pipeline batched = pp::runtime::use_case_pipeline(uc);
  uc.batch_cholesky = false;
  const Pipeline per_symbol = pp::runtime::use_case_pipeline(uc);
  auto single = [&](const pp::runtime::Stage_spec& st) {
    auto p = std::make_unique<Pipeline>(st.name, uc.cluster);
    p->add(st);
    return p;
  };
  for (const auto& st : batched.stages()) s.stages.push_back(single(st));
  s.stages.push_back(single(per_symbol.stages().at(2)));
  s.oracle = batched.measure(measure_options(opt.seed));
  s.chol_symb =
      s.stages.back()->measure(measure_options(opt.seed)).stages.at(0).rep;
}

// 0 when the repetition reproduces the oracle exactly (every stage report,
// the parallel and serial totals), else 1.
uint64_t check(const Setup& s, const std::vector<Stage_result>& r) {
  if (r.size() != kRollupStages + 1 ||
      s.oracle.stages.size() != kRollupStages) {
    return 1;
  }
  uint64_t par = 0, ser = 0;
  for (size_t i = 0; i < kRollupStages; ++i) {
    if (!same_report(r[i].rep, s.oracle.stages[i].rep)) return 1;
    if (r[i].core_set) par += r[i].rep.cycles * r[i].times;
    ser += r[i].serial_cycles;
  }
  if (par != s.oracle.parallel_cycles || ser != s.oracle.serial_cycles) {
    return 1;
  }
  return same_report(r.back().rep, s.chol_symb) ? 0 : 1;
}

// Lanes build their oracles independently; all must agree.
bool same_oracle(const Setup& a, const Setup& b) {
  if (a.oracle.stages.size() != b.oracle.stages.size()) return false;
  for (size_t i = 0; i < a.oracle.stages.size(); ++i) {
    if (!same_report(a.oracle.stages[i].rep, b.oracle.stages[i].rep)) {
      return false;
    }
  }
  return a.oracle.parallel_cycles == b.oracle.parallel_cycles &&
         a.oracle.serial_cycles == b.oracle.serial_cycles &&
         same_report(a.chol_symb, b.chol_symb);
}

}  // namespace

Outcome run_sim_usecase(const Options& opt) {
  Outcome out;
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kTraceSpans);
  struct Lane {
    Setup setup;
    std::vector<double> ms, plain_ms, traced_ms;
    double wall = 0.0;
    uint64_t failed = 0;
  };
  std::vector<Lane> lanes(opt.nproc);

  // Every lane builds its own stages and oracle, as each point of a sweep
  // does.  The lanes set up at once, so set-up is timed under the same load
  // as the roll-ups; setup_s is the median over lanes and repetitions.
  std::vector<double> setup_times;
  {
    Scope span(tracer.get(), "setup", -1);
    for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
      std::vector<double> t(lanes.size());
      std::vector<std::jthread> threads;
      for (size_t id = 0; id < lanes.size(); ++id) {
        threads.emplace_back([&, id] {
          lanes[id].setup = Setup{};
          const auto t0 = Clock::now();
          set_up(opt, lanes[id].setup);
          t[id] = seconds_between(t0, Clock::now());
        });
      }
      threads.clear();  // joins
      setup_times.insert(setup_times.end(), t.begin(), t.end());
    }
  }
  const Setup& s = lanes[0].setup;
  for (const Lane& l : lanes) out.failed += same_oracle(l.setup, s) ? 0 : 1;

  // Measured phase: every lane runs roll-ups back to back; lane 0 runs on
  // this thread and, in the traced run, alternates untraced and traced
  // roll-ups for the tracing overhead.
  const auto t_begin = Clock::now();
  auto run_lane = [&](uint32_t id) {
    Lane& l = lanes[id];
    for (int64_t k = 0;; ++k) {
      l.wall = seconds_between(t_begin, Clock::now());
      if ((l.wall >= opt.seconds && k >= kMinPerLane) ||
          l.wall >= 3 * opt.seconds) {
        break;
      }
      Tracer* tr = id == 0 && opt.trace && k % 2 == 1 ? tracer.get() : nullptr;
      const auto t0 = Clock::now();
      const auto r = roll_up(l.setup, opt.seed, tr, k);
      const double dt = 1e3 * seconds_between(t0, Clock::now());
      l.ms.push_back(dt);
      (tr ? l.traced_ms : l.plain_ms).push_back(dt);
      l.failed += check(l.setup, r);
    }
  };
  {
    std::vector<std::jthread> others;
    for (uint32_t id = 1; id < opt.nproc; ++id) {
      others.emplace_back(run_lane, id);
    }
    run_lane(0);
  }
  // Throughput is the sum of the lanes' rates; per-roll-up times are pooled
  // over every lane.
  std::vector<double> ms;
  double rate = 0.0;
  for (const Lane& l : lanes) {
    ms.insert(ms.end(), l.ms.begin(), l.ms.end());
    rate += static_cast<double>(l.ms.size()) / l.wall;
    out.failed += l.failed;
  }
  out.attempted = ms.size();

  const double sim_ms = s.oracle.ms_at_1ghz();
  // The per-symbol schedule differs from the batched one in the Cholesky
  // row only.
  const auto& chol = s.oracle.stages.at(2);
  const uint64_t chol_symb_times = s.stages.back()->stages().at(0).run.repeat;
  const uint64_t per_symb = s.oracle.parallel_cycles -
                            chol.rep.cycles * chol.times +
                            s.chol_symb.cycles * chol_symb_times;
  char line[256];
  std::snprintf(line, sizeof line,
                "sim_slot_ms %.4f at 1 GHz (batched Cholesky) vs paper %.3f: "
                "error %+.1f%% (model unvalidated; not tuned)",
                sim_ms, kPaperMs, 100.0 * (sim_ms / kPaperMs - 1.0));
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "speedup %.1f vs paper %.0f; per-symbol Cholesky schedule "
                "%.4f ms",
                s.oracle.speedup(), kPaperSpeedup,
                static_cast<double>(per_symb) * 1e-6);
  out.notes.push_back(line);
  const double n = static_cast<double>(ms.size());
  const double p50 = quantile(ms, 0.5), p90 = quantile(ms, 0.9);
  std::snprintf(line, sizeof line,
                "%zu roll-ups over %u lanes, p90 has %zu samples beyond it",
                ms.size(), opt.nproc,
                ms.size() - static_cast<size_t>(0.9 * n));
  out.notes.push_back(line);

  Metrics& m = out.metrics;
  if (!opt.trace) {
    m.put("slots_per_s", rate, "1/s");
    m.put("slot_ms_p50", p50, "ms");
    m.put("slot_ms_p90", p90, "ms");
    m.put("served_ratio", (n - static_cast<double>(out.failed)) / n,
          "ratio");
    m.put("setup_s", median(setup_times), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  const Lane& l0 = lanes[0];
  const double reps = static_cast<double>(l0.traced_ms.size());
  uint64_t instrs = 0;
  double host_s = 0.0;
  for (size_t i = 0; i < kRollupStages; ++i) {
    const auto& st = s.oracle.stages[i];
    const std::string p = std::string("sim.") + kStages[i];
    const double host = tracer->total(kSpans[i]).seconds;
    m.put(p + ".cycles", static_cast<double>(st.rep.cycles * st.times),
          "cycles");
    m.put(p + ".ipc", st.rep.ipc(), "ipc");
    m.put(p + ".frac_raw", st.rep.frac(pp::sim::Stall::raw), "fraction");
    m.put(p + ".frac_lsu", st.rep.frac(pp::sim::Stall::lsu), "fraction");
    m.put(p + ".frac_wfi", st.rep.frac(pp::sim::Stall::wfi), "fraction");
    m.put(p + ".host_ms", 1e3 * host / reps, "ms");
  }
  for (size_t i = 0; i < s.stages.size(); ++i) {
    instrs += i < kRollupStages ? s.oracle.stages[i].rep.instrs
                                : s.chol_symb.instrs;
    host_s += tracer->total(kSpans[i]).seconds;
  }
  m.put("sim.slot_kcycles", static_cast<double>(s.oracle.parallel_cycles) / 1e3,
        "kcycles");
  m.put("sim.slot_kcycles_per_symb", static_cast<double>(per_symb) / 1e3,
        "kcycles");
  m.put("sim.speedup", s.oracle.speedup(), "x");
  m.put("sim.err_vs_paper", sim_ms / kPaperMs - 1.0, "ratio");
  m.put("sim.host_s", host_s / reps, "s");
  m.put("sim.minstr_per_s", static_cast<double>(instrs) * reps / host_s / 1e6,
        "Minstr/s");
  m.put("pool.dispatch_us", pool_dispatch_us(1), "us");
  m.put("trace.overhead", median(l0.traced_ms) / median(l0.plain_ms) - 1.0, "ratio");
  if (!opt.trace_file.empty() &&
      !tracer->write_chrome(opt.trace_file, "sim-usecase", opt.seed)) {
    out.notes.push_back("could not write " + opt.trace_file);
    ++out.failed;
  }
  return out;
}

}  // namespace perfbench
