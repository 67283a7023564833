// serve-mix: the streaming scheduler over a three-cell traffic window.
//
// Slot_scheduler::run serves one window of Traffic_source jobs with the
// `fixed` backend on nproc/2 stage-pipelined slot workers (a front thread
// synthesizes each scenario and runs FFT + beamforming, a back thread the
// rest), `drop` admission and at most one HARQ retransmission per block.
// The measured phase repeats the window closed-loop: the next run() starts
// when the previous returns.  The oracle is the set-up run of the same
// window: every measured run must match it slot for slot (payload bits,
// EVM, BER, sigma2_hat) and on the whole deterministic surface
// (Schedule_result::deterministic_equal).
//
// Throughput is counted from the benchmark's side: executed slots (jobs
// that were not dropped, retransmissions included) over the wall time of
// the whole run() call.  Schedule_result::slots_per_second() is not used:
// it divides every job, dropped ones included, by wall_seconds, which
// covers only the parallel execution phase and leaves out the serial
// admission and HARQ passes (see perfbench/NOTES.md).
#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "fixed/simd.h"
#include "replay.h"
#include "runtime/admission.h"
#include "runtime/backend_fixed.h"
#include "runtime/backend_parallel.h"
#include "runtime/placement.h"
#include "runtime/traffic.h"

namespace perfbench {

namespace {

using pp::runtime::Latency_histogram;
using pp::runtime::Schedule_result;
using pp::runtime::Slot_scheduler;

constexpr int kSetupReps = 3;
constexpr uint64_t kWindow = 96;   // jobs per Slot_scheduler::run
constexpr uint64_t kPooled = 256;  // fewest slots pooled from the quietest calls
constexpr uint64_t kSample = 12;   // jobs replayed per layer pass (traced)

pp::runtime::Traffic_config traffic() {
  using pp::phy::Qam;
  pp::runtime::Traffic_config t;
  t.n_slots = kWindow;
  t.base_seed = 1;
  t.n_rx = 8;
  t.n_beams = 8;
  t.n_symb = 14;
  t.n_pilot_symb = 2;
  pp::runtime::Traffic_cell small;
  small.name = "64pt-1ue-qpsk";
  small.mu = 1;
  small.fft_size = 64;
  small.n_ue = 1;
  small.qam = Qam::qpsk;
  small.load = 0.8;
  pp::runtime::Traffic_cell mid;
  mid.name = "256pt-2ue-16qam";
  mid.mu = 1;
  mid.fft_size = 256;
  mid.n_ue = 2;
  mid.qam = Qam::qam16;
  mid.load = 0.8;
  pp::runtime::Traffic_cell big;
  big.name = "1024pt-4ue-16qam-tdla";
  big.mu = 1;
  big.fft_size = 1024;
  big.n_ue = 4;
  big.qam = Qam::qam16;
  big.load = 0.4;
  big.profile = pp::phy::Channel_profile::tdl_a;
  big.doppler_hz = 10.0;
  t.cells = {small, mid, big};
  return t;
}

// The window's traffic shape - arrival times and the cell of every job - is
// one fixed Poisson draw, so every seed offers the same work; the run seed
// picks each slot's content (payload bits, channel, noise).
class Seeded_window final : public pp::runtime::Slot_source {
 public:
  explicit Seeded_window(uint64_t seed) : traffic_(traffic()), seed_(seed) {}
  std::string_view name() const override { return "serve-mix"; }
  uint64_t n_slots() const override { return traffic_.n_slots(); }
  uint32_t n_groups() const override { return traffic_.n_groups(); }
  std::string group_label(uint32_t g) const override {
    return traffic_.group_label(g);
  }
  pp::runtime::Slot_job job(uint64_t i) const override {
    pp::runtime::Slot_job j = traffic_.job(i);
    j.cfg.seed = pp::common::Rng::derive_seed(seed_, i);
    return j;
  }

 private:
  pp::runtime::Traffic_source traffic_;
  uint64_t seed_;
};

pp::runtime::Scheduler_options scheduler_options(uint32_t nproc) {
  pp::runtime::Scheduler_options o;
  o.workers = std::max(1u, nproc / 2);
  o.backend = "fixed";
  o.intra = 1;
  o.pipelined = true;
  o.cluster = pp::arch::Cluster_config::minipool();
  o.keep_slots = true;
  o.clock_ghz = 0.5;
  o.service_units = 1;
  o.overload = "drop";
  o.max_harq = 1;
  o.harq_ber = 0.09;
  return o;
}

bool same_slots(const Schedule_result& a, const Schedule_result& b) {
  if (a.slots.size() != b.slots.size()) return false;
  for (size_t i = 0; i < a.slots.size(); ++i) {
    const auto& x = a.slots[i];
    const auto& y = b.slots[i];
    if (x.bits != y.bits || x.evm != y.evm || x.ber != y.ber ||
        x.sigma2_hat != y.sigma2_hat) {
      return false;
    }
  }
  return true;
}

uint64_t executed(const Schedule_result& r) {
  return r.total_slots - r.dropped;
}

// Quantile of a Latency_histogram, interpolated linearly inside the
// covering bucket (percentile() returns the bucket's upper edge, which
// would quantize a wall-clock time to 1/16 octave).
double hist_quantile(const Latency_histogram& h, double q) {
  const double target = q * static_cast<double>(h.count());
  double cum = 0.0;
  for (size_t b = 0; b < Latency_histogram::kBuckets; ++b) {
    const double c = static_cast<double>(h.bucket_count(b));
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const double lo = b ? Latency_histogram::bucket_upper_edge(b - 1) : 0.0;
      const double hi = Latency_histogram::bucket_upper_edge(b);
      return lo + (hi - lo) * (target - cum) / c;
    }
    cum += c;
  }
  return h.max_recorded();
}

struct Setup {
  std::unique_ptr<Seeded_window> source;
  std::unique_ptr<Slot_scheduler> scheduler;
  Schedule_result oracle;
};

void set_up(const Options& opt, Setup& s) {
  s.source = std::make_unique<Seeded_window>(opt.seed);
  s.scheduler =
      std::make_unique<Slot_scheduler>(scheduler_options(opt.nproc));
  s.oracle = s.scheduler->run(*s.source);
}

}  // namespace

Outcome run_serve_mix(const Options& opt) {
  Outcome out;
  Setup s;
  std::unique_ptr<Tracer> tracer;
  double setup_s = 0.0;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(kTraceSpans);
    Scope span(tracer.get(), "setup", -1);
    set_up(opt, s);
  } else {
    setup_s = timed_setups(kSetupReps, s, [&](Setup& x) { set_up(opt, x); });
  }
  Tracer* tr = tracer.get();

  // ---- measured phase: the window, closed loop --------------------------
  // The traced run alternates untraced and traced run() calls.
  // Every call serves the same jobs, so the quietest calls are the
  // shortest; the wall-service histograms of the shorter half are pooled
  // (bench.h).  Half, not the few shortest: over windows of one long run,
  // p50 and p90 from the shorter half spread by 0.04-0.05, from the three
  // shortest calls by 0.10 (perfbench/NOTES.md).
  struct Call {
    double seconds;
    uint64_t executed;
    Latency_histogram service;
  };
  std::vector<Call> calls;
  uint64_t attempted = 0, executed_slots = 0, failed = 0, missed = 0;
  double run_wall = 0.0, exec_traced = 0.0;
  double t_plain = 0.0, t_traced = 0.0;
  uint64_t n_plain = 0, n_traced = 0, traced_calls = 0;
  const auto t_begin = Clock::now();
  for (uint64_t k = 0;; ++k) {
    const double wall = seconds_between(t_begin, Clock::now());
    if ((wall >= opt.seconds && k >= 6) || wall >= 3 * opt.seconds) break;
    const bool traced = tr && k % 2 == 1;
    const auto t0 = Clock::now();
    Schedule_result r;
    {
      Scope span(traced ? tr : nullptr, "sched.run", static_cast<int64_t>(k));
      r = s.scheduler->run(*s.source);
    }
    const double dt = seconds_between(t0, Clock::now());
    const uint64_t ex = executed(r);
    const bool ok = r.deterministic_equal(s.oracle) && same_slots(r, s.oracle);
    attempted += r.total_slots;
    executed_slots += ex;
    failed += ok ? 0 : ex;
    missed += r.deadline_misses;
    run_wall += dt;
    if (traced) {
      exec_traced += r.wall_seconds;
    } else {
      calls.push_back({dt, ex, r.wall_service});
    }
    (traced ? t_traced : t_plain) += dt;
    (traced ? n_traced : n_plain) += ex;
    traced_calls += traced;
  }
  out.attempted = attempted;
  out.failed = failed;
  const Schedule_result& o = s.oracle;
  char line[320];
  std::snprintf(line, sizeof line,
                "window of %llu jobs: %llu executed, %llu dropped, %llu "
                "deadline misses, %llu HARQ retransmissions (%llu recovered)",
                static_cast<unsigned long long>(o.total_slots),
                static_cast<unsigned long long>(executed(o)),
                static_cast<unsigned long long>(o.dropped),
                static_cast<unsigned long long>(o.deadline_misses),
                static_cast<unsigned long long>(o.harq_retx),
                static_cast<unsigned long long>(o.harq_recovered));
  out.notes.push_back(line);
  std::sort(calls.begin(), calls.end(), [](const Call& a, const Call& b) {
    return a.seconds < b.seconds;
  });
  Latency_histogram pooled;
  double pooled_s = 0.0;
  uint64_t pooled_slots = 0;
  size_t pooled_calls = 0;
  for (const Call& c : calls) {
    if (2 * pooled_calls >= calls.size() && pooled_slots >= kPooled) break;
    pooled.merge(c.service);
    pooled_s += c.seconds;
    pooled_slots += c.executed;
    ++pooled_calls;
  }
  std::snprintf(line, sizeof line,
                "quietest %zu of %zu run() calls: %llu slots (wall-service "
                "histogram, interpolated); whole phase %.3f slots/s",
                pooled_calls, calls.size(),
                static_cast<unsigned long long>(pooled_slots),
                static_cast<double>(executed_slots) / run_wall);
  out.notes.push_back(line);

  Metrics& m = out.metrics;
  if (!opt.trace) {
    const double n = static_cast<double>(attempted);
    // A slot fails if admission dropped it, it missed its virtual
    // deadline, or its decode differed from the oracle.
    const double dropped = n - static_cast<double>(executed_slots);
    m.put("slots_per_s", static_cast<double>(pooled_slots) / pooled_s, "1/s");
    m.put("slot_ms_p50", 1e3 * hist_quantile(pooled, 0.5), "ms");
    m.put("slot_ms_p90", 1e3 * hist_quantile(pooled, 0.9), "ms");
    m.put("served_ratio",
          (n - dropped - static_cast<double>(missed + failed)) / n, "ratio");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // ---- layer probes ------------------------------------------------------
  const double n_calls = static_cast<double>(traced_calls);
  const double run_s = tr->total("sched.run").seconds / n_calls;
  const double exec_s = exec_traced / n_calls;
  m.put("sched.run_s", run_s, "s");
  m.put("sched.exec_s", exec_s, "s");
  m.put("sched.serial_s", run_s - exec_s, "s");
  m.put("sched.busy_frac", exec_s / run_s, "ratio");

  // The admission pre-pass on the window's jobs, as run() performs it.
  {
    const auto so = s.scheduler->options();
    std::vector<pp::runtime::Slot_job> jobs;
    for (uint64_t i = 0; i < s.source->n_slots(); ++i) {
      jobs.push_back(s.source->job(i));
    }
    pp::runtime::Admission_options ao;
    ao.policy = pp::runtime::overload_from_name(so.overload);
    ao.queue_limit = so.queue_limit;
    ao.min_ue = so.degrade_min_ue;
    for (int rep = 0; rep < 50; ++rep) {
      Scope span(tr, "admission.admit", -1);
      const auto shard_of_group =
          pp::runtime::place_groups(so.placement, {}, s.source->n_groups(), 1);
      const auto v = pp::runtime::admit_jobs(jobs, shard_of_group, 1,
                                             so.service_units, so.cluster,
                                             so.clock_ghz, ao);
      if (v.size() != jobs.size()) ++out.failed;
    }
    const auto a = tr->total("admission.admit");
    m.put("admission.admit_ms", 1e3 * a.seconds / static_cast<double>(a.count),
          "ms");
  }
  m.put("admission.dropped", static_cast<double>(o.dropped), "count");
  m.put("admission.degraded", static_cast<double>(o.degraded), "count");
  m.put("harq.retx", static_cast<double>(o.harq_retx), "count");
  m.put("harq.recovered", static_cast<double>(o.harq_recovered), "count");
  m.put("harq.useful_ratio",
        o.harq_retx ? static_cast<double>(o.harq_recovered) /
                          static_cast<double>(o.harq_retx)
                    : 0.0,
        "ratio");
  m.put("virtual.p99_us", 1e6 * o.latency.percentile(0.99), "us");
  m.put("virtual.misses", static_cast<double>(o.deadline_misses), "count");

  // Scenario synthesis, the split backend calls and the per-stage replay
  // on a sample of the window's executed jobs (mixed cells).
  const pp::runtime::Pipeline pipeline = pp::runtime::uplink_pipeline(
      s.scheduler->options().cluster, s.scheduler->options().uplink);
  pp::runtime::Fixed_backend backend(1, true);
  Fixed_replay replay;
  // The double family on the same inputs: `reference` is the oracle of
  // the stage-by-stage double replay, and `parallel` at intra 1 and at
  // intra nproc gives the intra-slot scaling.
  const auto reference = pp::runtime::make_backend("reference");
  Ref_replay ref_replay;
  pp::runtime::Parallel_backend one(1), all(opt.nproc);
  std::vector<double> one_ms, all_ms;
  pp::runtime::Slot_front front;
  pp::runtime::Slot_result res, want_ref;
  std::vector<uint64_t> sample;
  for (uint64_t i = 0; i < s.source->n_slots() && sample.size() < kSample;
       ++i) {
    if (!o.slots[i].bits.empty()) sample.push_back(i);
  }
  uint64_t replayed = 0;
  double ber_sum = 0.0;
  const auto r_begin = Clock::now();
  while (replayed < sample.size() ||
         seconds_between(r_begin, Clock::now()) < 0.2 * opt.seconds) {
    const uint64_t i = sample[replayed % sample.size()];
    const int64_t id = static_cast<int64_t>(i);
    std::unique_ptr<const pp::phy::Uplink_scenario> sc;
    {
      Scope span(tr, "phy.scenario_build", id);
      sc = std::make_unique<const pp::phy::Uplink_scenario>(
          s.source->job(i).cfg);
    }
    {
      Scope span(tr, "slot", id);
      {
        Scope f(tr, "backend.front", id);
        backend.run_front_into(pipeline, *sc, front);
      }
      Scope b(tr, "backend.back", id);
      backend.run_back_into(pipeline, *sc, front, res);
    }
    const auto& want = o.slots[i];
    out.failed += res.bits != want.bits || res.ber != want.ber;
    replay.run(pipeline, *sc, pp::fixed::simd_available(), tr, id, res);
    out.failed += !same_decode(res, want);
    ber_sum += res.ber;

    pipeline.execute_into(*sc, *reference, want_ref);
    ref_replay.run(*sc, tr, id, res);
    out.failed += !same_decode(res, want_ref);
    for (auto [intra_backend, ms] :
         {std::pair{&one, &one_ms}, std::pair{&all, &all_ms}}) {
      const auto t0 = Clock::now();
      pipeline.execute_into(*sc, *intra_backend, res);
      ms->push_back(1e3 * seconds_between(t0, Clock::now()));
      out.failed += !same_decode(res, want_ref);
    }
    ++replayed;
    out.attempted += 5;
  }
  const double slots = static_cast<double>(replayed);
  auto per_slot_ms = [&](const char* span) {
    return 1e3 * tr->total(span).seconds / slots;
  };
  put_fixed_metrics(*tr, replay.counts, slots, m);
  m.put("backend.front_ms", per_slot_ms("backend.front"), "ms");
  m.put("backend.back_ms", per_slot_ms("backend.back"), "ms");
  m.put("backend.glue_ms", 1e3 * glue_seconds(*tr, "fixed") / slots, "ms");
  m.put("backend.workspace_kib",
        static_cast<double>(backend.workspace_bytes()) / 1024.0, "KiB");
  m.put("phy.scenario_build_ms", per_slot_ms("phy.scenario_build"), "ms");
  m.put("phy.ber", ber_sum / slots, "ratio");
  for (const char* st : {"ref.fft", "ref.bf", "ref.che", "ref.ne",
                         "ref.mimo", "ref.demod"}) {
    m.put(std::string(st) + "_ms", per_slot_ms(st), "ms");
  }
  m.put("pool.dispatch_us", pool_dispatch_us(opt.nproc), "us");
  m.put("pool.efficiency", median(one_ms) / (opt.nproc * median(all_ms)),
        "ratio");
  const double plain_rate = static_cast<double>(n_plain) / t_plain;
  const double traced_rate = static_cast<double>(n_traced) / t_traced;
  m.put("trace.overhead", plain_rate / traced_rate - 1.0, "ratio");
  out.notes.push_back("tracing overhead: untraced " +
                      std::to_string(plain_rate) + " slots/s vs traced " +
                      std::to_string(traced_rate) + " slots/s");
  if (!opt.trace_file.empty() &&
      !tr->write_chrome(opt.trace_file, "serve-mix", opt.seed)) {
    out.notes.push_back("could not write " + opt.trace_file);
    ++out.failed;
  }
  return out;
}

}  // namespace perfbench
